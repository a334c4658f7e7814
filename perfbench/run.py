#!/usr/bin/env python3
"""End-to-end WCOP benchmark: one workload per call, source store to
published bytes (and the audit report in continuous_audit).

    python3 perfbench/run.py --workload ct_tiled_mono --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (and the library sources it compiles) under
$CARGO_TARGET_DIR (default .bench_build), generates the workload's corpus
from --seed, then runs measured passes of the workload for --seconds.
Every pass is a fresh process of perfbench/wcop_perfbench.cc, so its
peak RSS, CPU time and I/O byte counts belong to that pass alone.

The first pass of a run is a traced check pass: it also replays the
continuous pipeline's windows and checks the anti-vacuity floors, and it
warms the page cache, so it never enters an end-to-end median. With
--trace 0 the remaining passes are untraced and give the end-to-end
metrics. With --trace 1 the remaining passes alternate traced and
untraced; traced passes give the per-layer table, untraced ones the
tracing overhead.

Human-readable tables go to stdout; the last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}. Build output and
diagnostics go to stderr. The full record of the run (host, every pass)
is kept in <build dir>/perfbench/last_<workload>.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("ct_tiled_mono", "ct_dense_city", "sharded_tiled",
             "continuous_audit")
MIN_UNTRACED = 2
# Stop starting passes after this long, so a run ends well within 180 s
# even when the host is slow.
PASS_WALL_CAP_S = 120.0

# End-to-end metrics (untraced passes), in BENCHMARK.json order.
E2E = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
       ("peak_rss_mb", "MiB"), ("ttd", "m"),
       ("published_fraction", "ratio"))

# Owners of the traced wall time (see wcop_perfbench.cc); spans it does not
# name are summed into other_spans_s.
OWNER_METRICS = (
    "unattributed_s", "store.read_s", "store.open_s", "store.write_s",
    "anon.ct_unspanned_s", "anon.ct_self_s", "anon.verify_s",
    "anon.translate_s", "cluster.prepare_s", "cluster.round_self_s",
    "cluster.select_s", "cluster.pivot_scan_s", "parallel.caller_s",
    "shard.write_stores_s", "shard.run_self_s", "shard.merge_s",
    "shard.unspanned_s", "pipeline.unattributed_s", "attack.unspanned_s",
    "attack.audit_self_s", "attack.reident_s", "attack.linkage_s",
    "attack.effective_k_s", "attack.report_write_s", "other_spans_s")

# Per-layer metrics (traced passes), in BENCHMARK.json order.
PER_LAYER = (
    ("traced_wall_s", "s"), ("unattributed_s", "s"),
    ("trace_overhead_s", "s"), ("other_spans_s", "s"),
    ("setup.generate_s", "s"), ("setup.store_write_s", "s"),
    ("store.read_s", "s"), ("store.open_s", "s"), ("store.write_s", "s"),
    ("store.read_bytes", "B"), ("store.write_bytes", "B"),
    ("store.write_amp", "ratio"),
    ("shard.write_stores_s", "s"), ("shard.merge_s", "s"),
    ("shard.run_self_s", "s"), ("shard.unspanned_s", "s"),
    ("partition_s", "s"), ("partition.shards", "count"),
    ("partition.max_shard_ratio", "ratio"),
    ("anon.ct_s", "s"), ("anon.ct_unspanned_s", "s"), ("anon.ct_self_s", "s"),
    ("anon.verify_s", "s"), ("anon.translate_s", "s"),
    ("cluster.prepare_s", "s"), ("cluster.select_s", "s"),
    ("cluster.pivot_scan_s", "s"), ("cluster.round_self_s", "s"),
    ("cluster.attempts", "count"), ("cluster.accepted", "count"),
    ("cluster.rejected.radius", "count"), ("cluster.rounds", "count"),
    ("cluster.accept_ratio", "ratio"),
    ("grid.candidates_scanned", "count"),
    ("distance.candidates.prefiltered", "count"),
    ("distance.lb.separation_pruned", "count"),
    ("distance.early_abandoned", "count"), ("distance.calls.edr", "count"),
    ("distance.cache_hits", "count"), ("grid.useful_ratio", "ratio"),
    ("distance.exact_ratio", "ratio"),
    ("parallel.tasks", "count"), ("parallel.batches", "count"),
    ("parallel.threads", "count"), ("parallel.busy_s", "s"),
    ("parallel.utilization", "ratio"), ("parallel.caller_s", "s"),
    ("pipeline.windows", "count"), ("pipeline.fragments_published", "count"),
    ("pipeline.fragments_suppressed", "count"),
    ("pipeline.carry_records", "count"), ("pipeline.unattributed_s", "s"),
    ("pipeline.window_p50_s", "s"), ("pipeline.window_p90_s", "s"),
    ("pipeline.window_samples", "count"), ("window_io.extract_s", "s"),
    ("attack.audit_s", "s"), ("attack.unspanned_s", "s"),
    ("attack.audit_self_s", "s"), ("attack.reident_s", "s"),
    ("attack.linkage_s", "s"), ("attack.effective_k_s", "s"),
    ("attack.report_write_s", "s"),
    ("attack.victims", "count"), ("attack.candidates", "count"),
    ("attack.candidates.pruned", "count"), ("attack.pruned_ratio", "ratio"),
    ("attack.linkage.pairs_gated", "count"),
    ("attack.reident_top1", "ratio"),
    ("attack.effk_violation_fraction", "ratio"),
    ("counters.mismatched", "count"),
)

# Results that are a pure function of the input: they must repeat exactly
# across every pass of a run, traced or not.
DETERMINISTIC_RESULTS = ("ttd", "suppressed_fraction", "input_units",
                         "partition.shards", "partition.max_shard_ratio",
                         "pipeline.windows", "pipeline.fragments_published",
                         "pipeline.fragments_suppressed",
                         "pipeline.carry_records", "reident_top1",
                         "effk_violation_fraction", "attack.victims",
                         "attack.linkage.pairs_gated")

# Counter families that must repeat exactly across traced passes.
DETERMINISTIC_COUNTER_PREFIXES = ("cluster.", "grid.", "distance.",
                                  "pipeline.windows_published",
                                  "attack.candidates", "attack.victims")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build():
    """Configures and builds wcop_perfbench; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, cwd=ROOT)
        if proc.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "wcop_perfbench")
    return binary if os.path.exists(binary) else None


def call(binary, args):
    """Runs wcop_perfbench; returns its JSON output or raises RuntimeError."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("%s: %s" % (" ".join(args[:2]),
                                       proc.stderr.strip()[-500:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (from mountinfo)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                mount = left.split()[4]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")
                        or mount == "/") and len(mount) >= len(best):
                    best, fstype = mount, right.split()[0]
    except OSError:
        pass
    return fstype


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(traced, untraced, setup):
    """Per-layer metric values. Times come from the traced pass with the
    median traced wall time, so its owners add up to its wall exactly."""
    ranked = sorted(traced, key=lambda p: p["traced_wall_s"])
    mid = ranked[(len(ranked) - 1) // 2]
    m = {name: 0.0 for name in OWNER_METRICS}
    for name, seconds in mid["owners"].items():
        key = name if name in OWNER_METRICS else "other_spans_s"
        m[key] += seconds
    m["traced_wall_s"] = mid["traced_wall_s"]
    m["trace_overhead_s"] = (m["traced_wall_s"] -
                             median([p["wall_s"] for p in untraced]))
    m["anon.ct_s"] = mid["steps"].get("step/ct", 0.0)
    m["attack.audit_s"] = mid["steps"].get("step/audit", 0.0)
    m["parallel.busy_s"] = mid["parallel.busy_s"]
    for key in ("partition_s", "window_io.extract_s"):
        m[key] = mid["results"].get(key, 0.0)
    m["setup.generate_s"] = median(setup["generate_s"])
    m["setup.store_write_s"] = median(setup["store_write_s"])
    for key in ("store.read_bytes", "store.write_bytes"):
        m[key] = median([p[key] for p in untraced])
    m["store.write_amp"] = m["store.write_bytes"] / untraced[0]["source_bytes"]
    for key in ("pipeline.window_p50_s", "pipeline.window_p90_s"):
        m[key] = median([p["results"].get(key.split(".")[1], 0.0)
                         for p in untraced])
    first = traced[0]
    results = first["results"]
    for key in ("partition.shards", "partition.max_shard_ratio",
                "pipeline.windows", "pipeline.fragments_published",
                "pipeline.fragments_suppressed", "pipeline.carry_records",
                "attack.victims", "attack.linkage.pairs_gated"):
        m[key] = results.get(key, 0.0)
    m["pipeline.window_samples"] = results.get("window_samples", 0.0)
    m["attack.reident_top1"] = results.get("reident_top1", 0.0)
    m["attack.effk_violation_fraction"] = results.get(
        "effk_violation_fraction", 0.0)
    c = first["counters"]
    for key in ("cluster.attempts", "cluster.accepted",
                "cluster.rejected.radius", "cluster.rounds",
                "grid.candidates_scanned", "distance.candidates.prefiltered",
                "distance.lb.separation_pruned", "distance.early_abandoned",
                "distance.calls.edr", "distance.cache_hits", "parallel.tasks",
                "parallel.batches", "attack.candidates",
                "attack.candidates.pruned"):
        m[key] = c.get(key, 0.0)
    m["parallel.threads"] = c.get("gauge:parallel.threads", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m["cluster.accept_ratio"] = ratio(m["cluster.accepted"],
                                      m["cluster.attempts"])
    m["grid.useful_ratio"] = ratio(
        m["grid.candidates_scanned"] - m["distance.lb.separation_pruned"],
        m["grid.candidates_scanned"])
    m["distance.exact_ratio"] = ratio(
        m["distance.calls.edr"],
        m["distance.calls.edr"] + m["distance.early_abandoned"])
    m["parallel.utilization"] = ratio(
        m["parallel.busy_s"],
        max(1.0, m["parallel.threads"]) * mid["cluster.greedy_s"])
    m["attack.pruned_ratio"] = ratio(
        m["attack.candidates.pruned"],
        m["attack.candidates"] + m["attack.candidates.pruned"])
    return m


def counter_mismatches(traced, untraced):
    """Names of deterministic counters that did not repeat exactly."""
    bad = set()
    first = traced[0]["counters"]
    for p in traced[1:]:
        for key in set(first) | set(p["counters"]):
            if (key.startswith(DETERMINISTIC_COUNTER_PREFIXES) and
                    first.get(key) != p["counters"].get(key)):
                bad.add(key)
    for group in (traced, untraced):
        if any(p["store.write_bytes"] != group[0]["store.write_bytes"]
               for p in group):
            bad.add("store.write_bytes")
    return sorted(bad)


def pass_failures(p, reference):
    """Output checks of one pass against the run's first pass."""
    failures = list(p["failures"])
    if p["published_digest"] != reference["published_digest"]:
        failures.append("published bytes differ from the first pass")
    for key in DETERMINISTIC_RESULTS:
        if p["results"].get(key) != reference["results"].get(key):
            failures.append("result %s differs from the first pass" % key)
    return failures


def anti_vacuity(workload, check_pass):
    """Floors that keep each workload exercising what it exists for."""
    c = check_pass["counters"]
    failures = []
    if workload == "ct_dense_city":
        if c.get("gauge:parallel.threads", 0) < 4:
            failures.append("anti-vacuity: parallel.threads < 4")
        lb = sum(v for k, v in c.items() if k.startswith("distance.lb."))
        if lb == 0:
            failures.append("anti-vacuity: no distance.lb.* prunes")
    return failures


def print_table(title, rows):
    print("\n%s" % title)
    width = max([len(r[0]) for r in rows] + [10])
    for name, value, unit in rows:
        print("  %-*s %16.6g %s" % (width, name, value, unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    work = os.path.join(build_dir(), "work-%s-%d" % (args.workload,
                                                     os.getpid()))
    try:
        return run(binary, work, args)
    except (RuntimeError, ValueError, KeyError, OSError) as err:
        log("benchmark error: %s" % err)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(binary, work, args):
    workload = args.workload
    setup = call(binary, ["setup", "--workload=" + workload,
                          "--seed=%d" % args.seed, "--dir=" + work])
    source = os.path.join(work, "source.wst")
    failures = []
    if len(set(setup["digests"])) != 1:
        failures.append("set-up: the same seed wrote different source bytes")
    setup_s = median([g + w for g, w in zip(setup["generate_s"],
                                            setup["store_write_s"])])

    started = time.monotonic()
    passes = []
    while True:
        index = len(passes)
        # Pass 0 is the traced check pass; with --trace 1 the rest
        # alternate untraced / traced.
        traced = index == 0 or (args.trace == 1 and index % 2 == 0)
        passes.append(call(binary, [
            "pass", "--workload=" + workload, "--source=" + source,
            "--out=" + os.path.join(work, "pass"), "--trace=%d" % traced]))
        elapsed = time.monotonic() - started
        untraced_n = sum(1 for p in passes[1:] if not p["trace"])
        traced_n = sum(1 for p in passes if p["trace"])
        enough = untraced_n >= MIN_UNTRACED and (args.trace == 0 or
                                                 traced_n >= 2)
        if (elapsed >= args.seconds and enough) or elapsed > PASS_WALL_CAP_S:
            break
    traced = [p for p in passes if p["trace"]]
    untraced = [p for p in passes[1:] if not p["trace"]]
    if not untraced:
        raise RuntimeError("no untraced pass finished within the time cap")

    # Operations: the set-up reps, every pass, and the counter comparison.
    attempted = len(setup["digests"]) + len(passes) + 1
    failed = 1 if failures else 0
    for p in passes:
        fs = pass_failures(p, passes[0])
        if p is passes[0]:
            fs += anti_vacuity(workload, p)
        if fs:
            failed += 1
            failures += fs
    mismatched = counter_mismatches(traced, untraced)
    if mismatched:
        failed += 1
        failures += ["counter not exact across passes: " + k
                     for k in mismatched]

    results = untraced[0]["results"]
    e2e = {
        "setup_s": setup_s,
        "wall_s": median([p["wall_s"] for p in untraced]),
        "cpu_s": median([p["cpu_s"] for p in untraced]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
        "ttd": results["ttd"],
        "published_fraction": 1.0 - results["suppressed_fraction"],
    }
    layers = layer_metrics(traced, untraced, setup)
    layers["counters.mismatched"] = float(len(mismatched))

    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": setup["hardware_concurrency"],
        "build_type": setup["build_type"],
        "compiler": setup["compiler"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "filesystem": filesystem_of(work),
    }
    print("workload %s  seed %d  passes %d (%d untraced, %d traced)" %
          (workload, args.seed, len(passes), len(untraced), len(traced)))
    print("host " + " ".join("%s=%s" % kv for kv in host.items()))
    print("corpus %d trajectories, %d points, %d source bytes" %
          (setup["trajectories"], setup["points"], setup["source_bytes"]))
    units = dict(E2E)
    rows = [(k, e2e[k], units[k]) for k, _ in E2E]
    if workload == "continuous_audit":
        rows += [("window_p50_s", layers["pipeline.window_p50_s"], "s"),
                 ("window_p90_s", layers["pipeline.window_p90_s"], "s"),
                 ("window_samples", layers["pipeline.window_samples"],
                  "count"),
                 ("reident_top1", layers["attack.reident_top1"], "ratio"),
                 ("effk_violation_fraction",
                  layers["attack.effk_violation_fraction"], "ratio")]
    print_table("end-to-end (median of %d untraced passes)" % len(untraced),
                rows)
    if args.trace:
        print_table("per-layer (times: the median of %d traced passes)" %
                    len(traced),
                    [(k, layers[k], u) for k, u in PER_LAYER])
    owner_rows = sorted(((k, layers[k], "s") for k in OWNER_METRICS
                         if layers[k] != 0.0), key=lambda r: -r[1])
    print_table("owners of the traced wall time (sum %.6f s of %.6f s)" %
                (sum(r[1] for r in owner_rows), layers["traced_wall_s"]),
                owner_rows)
    by_layer = {}
    for name, seconds, _ in owner_rows:
        layer = name.split(".")[0] if "." in name else name
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    print("largest owner: %s; by layer: %s" % (owner_rows[0][0], ", ".join(
        "%s %.4f s" % kv for kv in sorted(by_layer.items(),
                                          key=lambda kv: -kv[1]))))
    for f in failures:
        print("FAILED: " + f)

    record = {"workload": workload, "seed": args.seed, "host": host,
              "setup": setup, "passes": passes, "end_to_end": e2e,
              "per_layer": layers, "failures": failures}
    with open(os.path.join(build_dir(), "last_%s.json" % workload),
              "w") as f:
        json.dump(record, f, indent=1)

    if args.trace:
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
