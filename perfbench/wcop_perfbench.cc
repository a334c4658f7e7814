// End-to-end benchmark binary for the WCOP pipeline. run.py builds this
// binary and calls it once per set-up and once per measured pass; every
// invocation prints exactly one JSON object on stdout.
//
//   wcop_perfbench setup --workload=W --seed=S --dir=D
//       Generates the workload's corpus and writes it as the source store
//       D/source.wst, kSetupReps times; reports each rep's timings and the
//       digest of the written store (identical seeds must give identical
//       bytes).
//
//   wcop_perfbench pass --workload=W --source=FILE --out=DIR --trace=0|1
//       Runs the workload once, from opening the source store to the last
//       published file, through public library entry points only. With
//       --trace=1 a telemetry sink is attached and the per-layer table is
//       computed from its spans and counters, and the expensive output
//       checks (for continuous_audit: an independent replay of every
//       window) run after the timed region; with --trace=0 the library
//       runs with telemetry detached.
//
// Output checks that fail turn into entries of the "failures" array; the
// process still exits 0 so run.py can report them by name. Exit code 1
// means the binary itself could not run (bad flags, I/O error).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "anon/verifier.h"
#include "anon/wcop_ct.h"
#include "attack/adversary.h"
#include "attack/audit.h"
#include "common/arg_parser.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "pipeline/continuous.h"
#include "pipeline/manifest.h"
#include "store/partitioner.h"
#include "store/shard_runner.h"
#include "store/store_file.h"
#include "store/window_io.h"

namespace fs = std::filesystem;
using namespace wcop;

namespace {

// ---------------------------------------------------------------------------
// Workloads (documented in perfbench/README.md).

enum class Kind { kMonolithic, kSharded, kContinuous };

struct Workload {
  const char* name;
  Kind kind;
  size_t cities;    // independent generator runs ("route networks")
  size_t per_city;  // trajectories per network
  size_t points;    // points per trajectory
  double spacing;   // metres between network origins
  int threads;
};

// Tiled corpora: cities 200 km apart, far beyond any matching tolerance.
// ct_dense_city overlays 40 networks 1 km apart in one region, so
// its density does not hinge on a single seed's hub layout. Sizes keep a
// pass near 1.5-2.5 s so a 20 s run takes the median of about ten passes.
constexpr Workload kWorkloads[] = {
    {"ct_tiled_mono", Kind::kMonolithic, 100, 100, 8, 200000.0, 1},
    {"ct_dense_city", Kind::kMonolithic, 40, 100, 40, 1000.0, 4},
    {"sharded_tiled", Kind::kSharded, 200, 100, 8, 200000.0, 1},
    {"continuous_audit", Kind::kContinuous, 100, 100, 8, 200000.0, 1},
};

constexpr size_t kShards = 200;               // sharded_tiled partition
constexpr double kWindowSeconds = 12 * 3600;  // continuous_audit windows
constexpr size_t kAuditVictims = 200;         // re-identification cap
constexpr uint64_t kWcopSeed = 7;             // pivot RNG, not an input
constexpr int kSetupReps = 5;                 // set-up timed as a median

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// The corpus: `cities` synthetic cities (the anonymize_csv generator shape)
// with k ~ U{2..5} and delta ~ U[10, 250] m. Only `seed` varies the input.
Result<Dataset> GenerateCorpus(const Workload& w, uint64_t seed) {
  SyntheticOptions city;
  city.seed = seed;
  city.num_trajectories = w.per_city;
  city.num_users = w.per_city / 3 + 1;
  city.points_per_trajectory = w.points;
  city.region_half_diagonal = 20000.0;
  city.dataset_duration_days = 60.0;
  WCOP_ASSIGN_OR_RETURN(
      Dataset dataset,
      GenerateTiledSyntheticGeoLife(city, w.cities, w.spacing));
  Rng rng(MixSeed(seed, 0x5eed));
  AssignUniformRequirements(&dataset, 2, 5, 10.0, 250.0, &rng);
  return dataset;
}

WcopOptions BaseWcop(const Workload& w, telemetry::Telemetry* tel) {
  WcopOptions wcop;
  wcop.seed = kWcopSeed;
  wcop.threads = w.threads;
  wcop.telemetry = tel;
  return wcop;
}

// ---------------------------------------------------------------------------
// Small utilities.

std::string DigestText(const pipeline::FileDigest& d) {
  return std::to_string(d.crc) + ":" + std::to_string(d.size);
}

// Digest of every regular file under `dir`: the CRC32 and size of each
// file by sorted relative name, hashed into one value.
Result<std::string> DigestTree(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files.push_back(fs::relative(entry.path(), dir).string());
    }
  }
  std::sort(files.begin(), files.end());
  std::string listing;
  for (const std::string& f : files) {
    WCOP_ASSIGN_OR_RETURN(pipeline::FileDigest d,
                          pipeline::DigestFile(dir + "/" + f));
    listing += f + "=" + DigestText(d) + ";";
  }
  char out[32];
  std::snprintf(out, sizeof(out), "%016zx", std::hash<std::string>{}(listing));
  return std::string(out);
}

// {user, system} CPU seconds of this process so far.
std::pair<double, double> CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {seconds(ru.ru_utime), seconds(ru.ru_stime)};
}

// rchar / wchar of /proc/self/io: bytes passed to read(2) / write(2).
std::pair<uint64_t, uint64_t> IoBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  uint64_t rchar = 0;
  uint64_t wchar = 0;
  while (in >> key >> value) {
    if (key == "rchar:") {
      rchar = value;
    } else if (key == "wchar:") {
      wchar = value;
    }
  }
  return {rchar, wchar};
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t i = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(i, 1, values.size()) - 1];
}

// JSON object writer: numbers, strings, arrays of either, nested objects.
class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, Quote(v));
  }
  void Strs(const std::string& key, const std::vector<std::string>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      out += (i == 0 ? "" : ",") + Quote(vs[i]);
    }
    Raw(key, out + "]");
  }
  void Nums(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    for (size_t i = 0; i < vs.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", vs[i]);
      out += buf;
    }
    Raw(key, out + "]");
  }
  void Obj(const std::string& key, const Json& inner) {
    Raw(key, inner.str());
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }
  void Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + value;
  }
  std::string body_;
};

// ---------------------------------------------------------------------------
// Self-time attribution over TraceRecorder::Events().
//
// Spans nest per (pid, tid) lane. A span's self time is its duration minus
// the durations of its direct children on the same lane. The main lane is
// the thread that ran the pass (pid 1, the tid of "bench/pass"); its spans
// partition the traced wall time. Two refinements keep that partition
// exact and readable:
//   * kFolded spans own their whole subtree (the coordinating thread's own
//     "parallel/worker" share of a fan-out stays inside the scan it serves);
//   * shard recorders merge in under pid 2+i. Their spans ran inside the
//     main lane's "shard/run", so their top-level time is moved from
//     "shard/run" to the shard spans' own owners.
// Worker lanes (pid 1, other tids) overlap the main lane in time; they
// feed parallel.busy_s only.

constexpr const char* kFolded[] = {"cluster/pivot_scan", "wcop_ct/translate"};

// Span (or benchmark step) name -> per-layer metric name.
constexpr std::pair<const char*, const char*> kOwnerNames[] = {
    {"bench/pass", "unattributed_s"},
    {"step/source_read", "store.read_s"},
    {"step/source_open", "store.open_s"},
    {"step/output_write", "store.write_s"},
    {"step/ct", "anon.ct_unspanned_s"},
    {"step/verify", "anon.verify_s"},
    {"step/sharded", "shard.unspanned_s"},
    {"step/pipeline", "pipeline.unattributed_s"},
    {"step/audit", "attack.unspanned_s"},
    {"step/report", "attack.report_write_s"},
    {"wcop_ct/run", "anon.ct_self_s"},
    {"cluster/greedy", "cluster.prepare_s"},
    {"cluster/greedy_round", "cluster.round_self_s"},
    {"cluster/grow", "cluster.select_s"},
    {"cluster/pivot_scan", "cluster.pivot_scan_s"},
    {"wcop_ct/translate", "anon.translate_s"},
    {"shard/write_stores", "shard.write_stores_s"},
    {"shard/run", "shard.run_self_s"},
    {"shard/merge", "shard.merge_s"},
    {"attack/audit", "attack.audit_self_s"},
    {"attack/reident", "attack.reident_s"},
    {"attack/linkage", "attack.linkage_s"},
    {"attack/effective_k", "attack.effective_k_s"},
    {"parallel/worker", "parallel.caller_s"},
};

std::string OwnerName(const std::string& span) {
  for (const auto& [from, to] : kOwnerNames) {
    if (span == from) {
      return to;
    }
  }
  std::string out = "other.";
  for (char c : span) {
    out += (c == '/') ? '.' : c;
  }
  return out + "_s";
}

struct Attribution {
  std::map<std::string, double> owners;  // metric name -> seconds
  double traced_wall_s = 0.0;            // duration of "bench/pass"
  double greedy_s = 0.0;                 // main-lane cluster/greedy
  double parallel_busy_s = 0.0;          // all parallel/worker spans
};

Attribution Attribute(const std::vector<telemetry::TraceEvent>& events) {
  Attribution out;
  uint32_t main_tid = 0;
  for (const auto& e : events) {
    if (e.pid == 1 && std::string(e.name) == "bench/pass") {
      main_tid = e.tid;
      out.traced_wall_s = 1e-9 * static_cast<double>(e.dur_ns);
    }
  }
  std::map<std::pair<uint32_t, uint32_t>, std::vector<size_t>> lanes;
  for (size_t i = 0; i < events.size(); ++i) {
    lanes[{events[i].pid, events[i].tid}].push_back(i);
  }
  double shard_top_level_s = 0.0;
  for (auto& [lane, idx] : lanes) {
    const bool main_lane = lane.first == 1 && lane.second == main_tid;
    const bool shard_lane = lane.first >= 2;
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      const auto& x = events[a];
      const auto& y = events[b];
      if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
      if (x.depth != y.depth) return x.depth < y.depth;
      return x.dur_ns > y.dur_ns;
    });
    struct Open {
      size_t event;
      uint64_t end_ns;
      uint64_t child_ns;
      bool folded;         // this span owns its whole subtree
      bool inside_folded;  // an ancestor does
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      const auto& e = events[o.event];
      const std::string name = e.name;
      const double dur = 1e-9 * static_cast<double>(e.dur_ns);
      if (name == "parallel/worker") {
        out.parallel_busy_s += dur;
      }
      if (main_lane && name == "cluster/greedy") {
        out.greedy_s += dur;
      }
      if ((!main_lane && !shard_lane) || o.inside_folded) {
        return;  // worker lanes overlap the main lane
      }
      const uint64_t self_ns =
          e.dur_ns > o.child_ns ? e.dur_ns - o.child_ns : 0;
      out.owners[OwnerName(name)] +=
          o.folded ? dur : 1e-9 * static_cast<double>(self_ns);
    };
    for (size_t i : idx) {
      const auto& e = events[i];
      while (!stack.empty() && stack.back().end_ns <= e.start_ns) {
        close(stack.back());
        stack.pop_back();
      }
      bool inside_folded = false;
      if (!stack.empty()) {
        stack.back().child_ns += e.dur_ns;
        inside_folded = stack.back().folded || stack.back().inside_folded;
      } else if (shard_lane) {
        shard_top_level_s += 1e-9 * static_cast<double>(e.dur_ns);
      }
      const std::string name = e.name;
      const bool folded =
          std::find_if(std::begin(kFolded), std::end(kFolded),
                       [&](const char* f) { return name == f; }) !=
          std::end(kFolded);
      stack.push_back({i, e.start_ns + e.dur_ns, 0, folded, inside_folded});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  if (shard_top_level_s > 0.0) {
    out.owners["shard.run_self_s"] -= shard_top_level_s;
  }
  return out;
}

// ---------------------------------------------------------------------------
// One pass.

struct PassContext {
  const Workload* workload = nullptr;
  std::string source;
  std::string out_dir;
  bool trace = false;
};

// Everything a pass reports besides timings.
struct PassResult {
  Json metrics;                     // numeric results
  std::vector<std::string> failures;
  telemetry::MetricsSnapshot counters;  // per-layer counters (traced)
  std::string published_dir;
  std::vector<std::pair<std::string, double>> steps;  // timed steps
  // continuous_audit: what the replay check needs after the timed region.
  std::optional<pipeline::ContinuousPipelineResult> windows;
};

// Runs `fn` as a named step: timed, and spanned when tracing.
template <typename Fn>
auto Step(telemetry::Telemetry* tel, const char* span, PassResult* r, Fn fn) {
  Stopwatch watch;
  telemetry::ScopedSpan scoped(tel, span);
  auto value = fn();
  r->steps.emplace_back(span, watch.ElapsedSeconds());
  return value;
}


Result<Dataset> ReadSource(const std::string& path) {
  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreReader reader,
                        store::TrajectoryStoreReader::Open(path));
  return reader.ReadAll();
}

Status RunMonolithic(const PassContext& ctx, telemetry::Telemetry* tel,
                     PassResult* r) {
  const Workload& w = *ctx.workload;
  Result<Dataset> dataset = Step(tel, "step/source_read", r,
                                 [&] { return ReadSource(ctx.source); });
  WCOP_RETURN_IF_ERROR(dataset.status());
  Result<AnonymizationResult> result = Step(tel, "step/ct", r, [&] {
    return RunWcopCt(*dataset, BaseWcop(w, tel));
  });
  WCOP_RETURN_IF_ERROR(result.status());
  const VerificationReport verification = Step(tel, "step/verify", r, [&] {
    return VerifyAnonymity(*dataset, *result);
  });
  const std::string published = r->published_dir + "/published.wst";
  WCOP_RETURN_IF_ERROR(Step(tel, "step/output_write", r, [&] {
    return store::WriteDatasetStore(result->sanitized, published);
  }));
  if (!verification.ok) {
    r->failures.push_back(
        "VerifyAnonymity: " + std::to_string(verification.violations) +
        " violation(s)" +
        (verification.messages.empty() ? "" : ": " + verification.messages[0]));
  }
  const AnonymizationReport& report = result->report;
  r->metrics.Num("ttd", report.ttd);
  r->metrics.Num("suppressed_fraction",
                 static_cast<double>(report.trashed_trajectories) /
                     static_cast<double>(dataset->size()));
  r->metrics.Num("input_units", static_cast<double>(dataset->size()));
  if (tel != nullptr) {
    r->counters = tel->metrics().Snapshot();
  }
  return Status::OK();
}

void ReportPartition(const store::Partition& partition, PassResult* r) {
  size_t largest = 0;
  size_t total = 0;
  for (const store::ShardSpec& s : partition.shards) {
    largest = std::max(largest, s.members.size());
    total += s.members.size();
  }
  const double mean = partition.shards.empty()
                          ? 0.0
                          : static_cast<double>(total) /
                                static_cast<double>(partition.shards.size());
  r->metrics.Num("partition.shards",
                 static_cast<double>(partition.shards.size()));
  r->metrics.Num("partition.max_shard_ratio",
                 mean > 0.0 ? static_cast<double>(largest) / mean : 0.0);
}

Status RunSharded(const PassContext& ctx, telemetry::Telemetry* tel,
                  PassResult* r) {
  const Workload& w = *ctx.workload;
  Result<store::TrajectoryStoreReader> reader =
      Step(tel, "step/source_open", r,
           [&] { return store::TrajectoryStoreReader::Open(ctx.source); });
  WCOP_RETURN_IF_ERROR(reader.status());
  store::ShardRunOptions run;
  run.wcop = BaseWcop(w, tel);
  run.partition.num_shards = kShards;
  run.shard_dir = ctx.out_dir + "/work/shards";
  fs::create_directories(run.shard_dir);
  run.verify_shards = true;
  run.stream_output_store = r->published_dir + "/published.wst";
  Result<store::ShardedRunResult> result = Step(
      tel, "step/sharded", r, [&] { return RunShardedWcopCt(*reader, run); });
  WCOP_RETURN_IF_ERROR(result.status());
  if (!result->all_verified) {
    r->failures.push_back("sharded run: a shard failed VerifyAnonymity");
  }
  if (result->partition.shards.size() <= 1) {
    r->failures.push_back("anti-vacuity: sharded_tiled partitioned into " +
                          std::to_string(result->partition.shards.size()) +
                          " shard");
  }
  const AnonymizationReport& report = result->merged.report;
  r->metrics.Num("ttd", report.ttd);
  r->metrics.Num("suppressed_fraction",
                 static_cast<double>(report.trashed_trajectories) /
                     static_cast<double>(reader->size()));
  r->metrics.Num("input_units", static_cast<double>(reader->size()));
  ReportPartition(result->partition, r);
  if (tel != nullptr) {
    // Shard registries are merged into the report, not into `tel`.
    r->counters = result->merged.report.metrics;
    Stopwatch partition_watch;
    Result<store::Partition> again =
        store::PartitionStoreIndex(reader->index(), run.partition);
    r->metrics.Num("partition_s", partition_watch.ElapsedSeconds());
    WCOP_RETURN_IF_ERROR(again.status());
    if (again->shards.size() != result->partition.shards.size()) {
      r->failures.push_back("PartitionStoreIndex is not deterministic");
    }
  }
  return Status::OK();
}

pipeline::ContinuousPipelineOptions PipelineOptions(const PassContext& ctx,
                                                    const Workload& w,
                                                    telemetry::Telemetry* tel,
                                                    const std::string& out) {
  pipeline::ContinuousPipelineOptions options;
  options.source_store = ctx.source;
  options.output_dir = out;
  options.work_dir = ctx.out_dir + "/work/pipeline";
  options.window_seconds = kWindowSeconds;
  options.verify_shards = true;
  options.wcop = BaseWcop(w, tel);
  return options;
}

// Independent replay of the published windows: re-extracts every window
// through ExtractWindow along the committed carry chain, checks the window
// input and carry bytes against the manifest, re-anonymizes the window
// with the sharded runner and the verifier on, and requires
// byte-identical output. This is how the benchmark checks the verifier's
// verdict for windowed runs (the pipeline does not return it).
Status ReplayWindows(const PassContext& ctx, PassResult* r) {
  const Workload& w = *ctx.workload;
  const pipeline::ContinuousPipelineResult& published = *r->windows;
  const std::string windows_dir = r->published_dir + "/windows";
  const std::string dir = ctx.out_dir + "/work/replay";
  fs::create_directories(dir);
  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreReader source,
                        store::TrajectoryStoreReader::Open(ctx.source));
  const pipeline::ContinuousPipelineOptions options =
      PipelineOptions(ctx, w, nullptr, windows_dir);
  double extract_s = 0.0;
  std::map<std::string, uint64_t> counters;  // summed over windows
  int64_t next_fragment_id = 0;
  size_t mismatched = 0;
  size_t unverified = 0;
  char name[64];
  for (const pipeline::WindowManifest& m : published.windows) {
    const auto path = [&](const char* stem, uint64_t i) {
      std::snprintf(name, sizeof(name), "/%s_%05llu.wst", stem,
                    static_cast<unsigned long long>(i));
      return dir + name;
    };
    store::WindowExtractOptions extract;
    extract.window_start = m.window_start;
    extract.window_end = m.window_end;
    extract.min_fragment_points = options.min_fragment_points;
    extract.next_fragment_id = next_fragment_id;
    extract.carry_in_path =
        m.window_index == 0 ? std::string() : path("carry", m.window_index);
    extract.window_out_path = path("in", m.window_index);
    extract.carry_out_path = path("carry", m.window_index + 1);
    Stopwatch watch;
    WCOP_ASSIGN_OR_RETURN(store::WindowExtraction x,
                          store::ExtractWindow(source, extract));
    extract_s += watch.ElapsedSeconds();
    next_fragment_id = x.next_fragment_id;
    WCOP_ASSIGN_OR_RETURN(pipeline::FileDigest in_digest,
                          pipeline::DigestFile(extract.window_out_path));
    WCOP_ASSIGN_OR_RETURN(pipeline::FileDigest carry_digest,
                          pipeline::DigestFile(extract.carry_out_path));
    if (x.fragments != m.input_fragments ||
        x.next_fragment_id != m.next_fragment_id ||
        in_digest.crc != m.input_crc || in_digest.size != m.input_size ||
        carry_digest.crc != m.carry_crc || carry_digest.size != m.carry_size) {
      ++mismatched;
    }
    const std::string replayed = path("out", m.window_index);
    if (x.fragments > 0 && !m.skipped) {
      WCOP_ASSIGN_OR_RETURN(
          store::TrajectoryStoreReader window_reader,
          store::TrajectoryStoreReader::Open(extract.window_out_path));
      telemetry::Telemetry tel;
      store::ShardRunOptions run;
      run.wcop = BaseWcop(w, &tel);
      run.partition = options.partition;
      run.shard_dir = dir + "/shards";
      run.verify_shards = true;
      run.stream_output_store = replayed;
      WCOP_ASSIGN_OR_RETURN(store::ShardedRunResult sharded,
                            RunShardedWcopCt(window_reader, run));
      if (!sharded.all_verified) {
        ++unverified;
      }
      for (const auto& [name, value] : sharded.merged.report.metrics.counters) {
        counters[name] += value;
      }
      WCOP_ASSIGN_OR_RETURN(pipeline::FileDigest out_digest,
                            pipeline::DigestFile(replayed));
      if (out_digest.crc != m.output_crc || out_digest.size != m.output_size) {
        ++mismatched;
      }
      fs::remove(replayed);
    }
    fs::remove(extract.window_out_path);
    if (m.window_index > 0) {
      fs::remove(path("carry", m.window_index));
    }
  }
  fs::remove_all(dir);
  if (unverified > 0) {
    r->failures.push_back("continuous windows: " + std::to_string(unverified) +
                          " window(s) failed VerifyAnonymity on replay");
  }
  if (mismatched > 0) {
    r->failures.push_back("continuous windows: " + std::to_string(mismatched) +
                          " window(s) differ from their independent replay");
  }
  r->metrics.Num("window_io.extract_s", extract_s);
  // The pipeline keeps per-window shard registries to itself; the replay's
  // identical computation supplies the clustering and distance counters.
  for (const auto& [counter, value] : counters) {
    if (counter.rfind("cluster.", 0) == 0 ||
        counter.rfind("distance.", 0) == 0 ||
        counter.rfind("grid.", 0) == 0) {
      r->counters.counters.emplace_back(counter, value);
    }
  }
  return Status::OK();
}

Status RunContinuous(const PassContext& ctx, telemetry::Telemetry* tel,
                     PassResult* r) {
  const Workload& w = *ctx.workload;
  const std::string windows_dir = r->published_dir + "/windows";
  pipeline::ContinuousPipelineOptions options =
      PipelineOptions(ctx, w, tel, windows_dir);
  std::vector<double> latency;
  options.progress = [&](const pipeline::PipelineProgress& p) {
    latency.push_back(p.last_window_seconds);
  };
  Result<pipeline::ContinuousPipelineResult> result = Step(
      tel, "step/pipeline", r,
      [&] { return pipeline::RunContinuousPipeline(options); });
  WCOP_RETURN_IF_ERROR(result.status());

  attack::AuditOptions audit;
  audit.windows_dir = windows_dir;
  audit.original_store = ctx.source;
  WCOP_ASSIGN_OR_RETURN(audit.adversary, attack::AdversaryPreset("moderate"));
  audit.victims = kAuditVictims;
  audit.threads = 1;
  audit.telemetry = tel;
  Result<attack::AuditReport> report =
      Step(tel, "step/audit", r, [&] { return attack::RunAudit(audit); });
  WCOP_RETURN_IF_ERROR(report.status());
  WCOP_RETURN_IF_ERROR(Step(tel, "step/report", r, [&]() -> Status {
    const std::string path = r->published_dir + "/audit.json";
    {
      std::ofstream out(path + ".tmp", std::ios::trunc);
      out << attack::AuditReportToJson(*report) << "\n";
      if (!out.flush()) {
        return Status::IoError("cannot write " + path + ".tmp");
      }
    }
    fs::rename(path + ".tmp", path);
    return Status::OK();
  }));

  const pipeline::ContinuousPipelineResult& p = *result;
  uint64_t carry_records = 0;
  for (const pipeline::WindowManifest& m : p.windows) {
    carry_records += m.carried_out;
  }
  const uint64_t fragments = p.published_fragments + p.suppressed_fragments;
  r->metrics.Num("ttd", p.total_ttd);
  r->metrics.Num("suppressed_fraction",
                 static_cast<double>(p.suppressed_fragments) /
                     static_cast<double>(std::max<uint64_t>(1, fragments)));
  r->metrics.Num("input_units", static_cast<double>(fragments));
  r->metrics.Num("window_p50_s", Percentile(latency, 0.5));
  r->metrics.Num("window_p90_s", Percentile(latency, 0.9));
  r->metrics.Num("window_samples", static_cast<double>(latency.size()));
  r->metrics.Num("pipeline.windows", static_cast<double>(p.windows.size()));
  r->metrics.Num("pipeline.fragments_published",
                 static_cast<double>(p.published_fragments));
  r->metrics.Num("pipeline.fragments_suppressed",
                 static_cast<double>(p.suppressed_fragments));
  r->metrics.Num("pipeline.carry_records", static_cast<double>(carry_records));
  r->metrics.Num("reident_top1", report->reident.top1_success);
  r->metrics.Num("effk_violation_fraction",
                 report->effective_k.violation_fraction);
  r->metrics.Num("attack.victims",
                 static_cast<double>(report->reident.victims_attacked));
  r->metrics.Num("attack.linkage.pairs_gated",
                 static_cast<double>(report->linkage.pairs_gated));
  if (p.windows.size() < 100) {
    r->failures.push_back("anti-vacuity: continuous_audit published " +
                          std::to_string(p.windows.size()) +
                          " windows (< 100)");
  }
  if (report->reident.victims_attacked == 0) {
    r->failures.push_back("anti-vacuity: the audit attacked 0 victims");
  }
  if (p.degraded) {
    r->failures.push_back("continuous run degraded");
  }
  if (tel != nullptr) {
    r->counters = tel->metrics().Snapshot();
  }
  r->windows = std::move(result).value();
  return Status::OK();
}

int RunPass(const ArgParser& args) {
  PassContext ctx;
  ctx.workload = FindWorkload(args.GetString("workload", ""));
  ctx.source = args.GetString("source", "");
  ctx.out_dir = args.GetString("out", "");
  ctx.trace = args.GetInt("trace", 0) != 0;
  if (ctx.workload == nullptr || ctx.source.empty() || ctx.out_dir.empty()) {
    std::fprintf(stderr, "pass: need --workload, --source and --out\n");
    return 1;
  }
  PassResult r;
  r.published_dir = ctx.out_dir + "/published";
  fs::remove_all(ctx.out_dir);
  fs::create_directories(r.published_dir);

  std::optional<telemetry::Telemetry> tel_storage;
  if (ctx.trace) {
    tel_storage.emplace();
  }
  telemetry::Telemetry* tel = ctx.trace ? &*tel_storage : nullptr;

  const auto io_before = IoBytes();
  const auto cpu_before = CpuSeconds();
  Stopwatch wall;
  Status status;
  {
    telemetry::ScopedSpan pass_span(tel, "bench/pass");
    switch (ctx.workload->kind) {
      case Kind::kMonolithic:
        status = RunMonolithic(ctx, tel, &r);
        break;
      case Kind::kSharded:
        status = RunSharded(ctx, tel, &r);
        break;
      case Kind::kContinuous:
        status = RunContinuous(ctx, tel, &r);
        break;
    }
  }
  const double wall_s = wall.ElapsedSeconds();
  const auto cpu_after = CpuSeconds();
  const double user_s = cpu_after.first - cpu_before.first;
  const double sys_s = cpu_after.second - cpu_before.second;
  const auto io_after = IoBytes();
  // Before the checks and the digest, which read whole files into memory.
  const double peak_rss_mb = PeakRssMb();
  if (status.ok() && ctx.trace && r.windows.has_value()) {
    status = ReplayWindows(ctx, &r);
  }
  std::string published_digest;
  if (status.ok()) {
    Result<std::string> digest = DigestTree(r.published_dir);
    status = digest.status();
    if (digest.ok()) {
      published_digest = *digest;
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "pass failed: %s\n", status.ToString().c_str());
    return 1;
  }

  Json out;
  out.Str("workload", ctx.workload->name);
  out.Num("trace", ctx.trace ? 1 : 0);
  out.Num("wall_s", wall_s);
  out.Num("cpu_s", user_s + sys_s);
  out.Num("sys_s", sys_s);
  out.Num("peak_rss_mb", peak_rss_mb);
  out.Num("store.read_bytes",
          static_cast<double>(io_after.first - io_before.first));
  out.Num("store.write_bytes",
          static_cast<double>(io_after.second - io_before.second));
  out.Num("source_bytes", static_cast<double>(fs::file_size(ctx.source)));
  out.Str("published_digest", published_digest);
  out.Obj("results", r.metrics);
  Json steps;
  for (const auto& [name, seconds] : r.steps) {
    steps.Num(name, seconds);
  }
  out.Obj("steps", steps);
  if (tel != nullptr) {
    const Attribution a = Attribute(tel->trace().Events());
    Json owners;
    for (const auto& [name, seconds] : a.owners) {
      owners.Num(name, seconds);
    }
    out.Obj("owners", owners);
    out.Num("traced_wall_s", a.traced_wall_s);
    out.Num("parallel.busy_s", a.parallel_busy_s);
    out.Num("cluster.greedy_s", a.greedy_s);
    Json counters;
    for (const auto& [name, value] : r.counters.counters) {
      counters.Num(name, static_cast<double>(value));
    }
    for (const auto& [name, value] : r.counters.gauges) {
      counters.Num("gauge:" + name, value);
    }
    out.Obj("counters", counters);
  }
  out.Strs("failures", r.failures);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Set-up: corpus generation plus source-store write.

int RunSetup(const ArgParser& args) {
  const Workload* w = FindWorkload(args.GetString("workload", ""));
  const std::string dir = args.GetString("dir", "");
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  if (w == nullptr || dir.empty()) {
    std::fprintf(stderr, "setup: need --workload and --dir\n");
    return 1;
  }
  fs::create_directories(dir);
  const std::string path = dir + "/source.wst";
  std::vector<double> generate_s;
  std::vector<double> write_s;
  std::vector<std::string> digests;
  size_t trajectories = 0;
  size_t points = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Stopwatch generate;
    Result<Dataset> dataset = GenerateCorpus(*w, seed);
    generate_s.push_back(generate.ElapsedSeconds());
    if (!dataset.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
    Stopwatch write;
    if (Status s = store::WriteDatasetStore(*dataset, path); !s.ok()) {
      std::fprintf(stderr, "store write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    write_s.push_back(write.ElapsedSeconds());
    Result<pipeline::FileDigest> digest = pipeline::DigestFile(path);
    if (!digest.ok()) {
      std::fprintf(stderr, "source digest failed: %s\n",
                   digest.status().ToString().c_str());
      return 1;
    }
    digests.push_back(DigestText(*digest));
    trajectories = dataset->size();
    points = dataset->TotalPoints();
  }
  Json out;
  out.Nums("generate_s", generate_s);
  out.Nums("store_write_s", write_s);
  out.Strs("digests", digests);
  out.Num("trajectories", static_cast<double>(trajectories));
  out.Num("points", static_cast<double>(points));
  out.Num("source_bytes", static_cast<double>(fs::file_size(path)));
  out.Num("hardware_concurrency", std::thread::hardware_concurrency());
  out.Str("build_type", WCOP_BENCH_BUILD_TYPE);
  out.Str("compiler", WCOP_BENCH_COMPILER);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::vector<std::string>& mode = args.positional();
  if (mode.size() == 1 && mode[0] == "setup") {
    return RunSetup(args);
  }
  if (mode.size() == 1 && mode[0] == "pass") {
    return RunPass(args);
  }
  std::fprintf(stderr, "usage: wcop_perfbench setup|pass --workload=W ...\n");
  return 1;
}
