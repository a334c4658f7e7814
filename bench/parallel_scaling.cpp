// Parallel-scaling benchmark: the fig5-style WCOP-CT workload at 1/2/4/8
// worker threads. Beyond wall-clock speedup, the harness *checks* the two
// determinism invariants the parallel layer promises:
//
//   * the published (sanitized) dataset is bit-identical at every thread
//     count (verified via an FNV-1a hash over ids and coordinate bit
//     patterns), and
//   * the distance-call counters — and with them the RunContext budget
//     accounting — are identical at every thread count.
//
// A violation exits non-zero, so the bench doubles as a determinism gate.
// WCOP-CT's clustering loop is serial, so the thread sweep measures the
// per-cluster translation fan-out only; clustering time is the same at
// every thread count.
// Speedups are reported against the measured --threads=1 run; on machines
// with fewer cores than the sweep's thread counts the extra threads cannot
// help, which is why the json record carries `hardware_concurrency`.
//
// Run:  ./parallel_scaling [--trajectories=238] [--points=120]
//                          [--kmax=5] [--dmax=250]
//                          [--repeats=1] [--json-out=FILE]
//                          [--max-edr-calls=N]
//
// `--max-edr-calls=N` (0 = off) turns the bench into a regression gate on
// the lower-bound cascade: the run fails if the reference (serial) run
// computes more than N exact EDR distances. CI pins N to a checked-in
// ceiling so a change that silently erodes the pruning shows up red.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "anon/wcop.h"
#include "bench_util.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

using namespace wcop;
using namespace wcop::bench;

namespace {

uint64_t HashBits(uint64_t h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  for (int shift = 0; shift < 64; shift += 8) {
    h = (h ^ ((bits >> shift) & 0xFF)) * 0x100000001B3ull;  // FNV-1a
  }
  return h;
}

/// FNV-1a over every published id, requirement, and point bit pattern:
/// equal hashes across thread counts certify bit-identical output.
uint64_t HashDataset(const Dataset& dataset) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (const Trajectory& t : dataset.trajectories()) {
    h = HashBits(h, static_cast<double>(t.id()));
    h = HashBits(h, static_cast<double>(t.requirement().k));
    h = HashBits(h, t.requirement().delta);
    for (const Point& p : t.points()) {
      h = HashBits(h, p.x);
      h = HashBits(h, p.y);
      h = HashBits(h, p.t);
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  BenchScale scale = BenchScale::FromArgs(args);
  const int k_max = static_cast<int>(args.GetInt("kmax", 5));
  const double delta_max = args.GetDouble("dmax", 250.0);
  const int repeats = static_cast<int>(args.GetInt("repeats", 1));
  const uint64_t max_edr_calls =
      static_cast<uint64_t>(args.GetInt("max-edr-calls", 0));
  JsonOut json_out(args);

  Dataset dataset = MakeBenchDataset(scale);
  AssignPaperRequirements(&dataset, k_max, delta_max, scale.seed + 1);
  std::printf("dataset: %s\n", dataset.DebugString().c_str());
  const int hardware = parallel::HardwareThreads();
  std::printf("hardware_concurrency: %d\n", hardware);

  PrintHeader("Parallel scaling: WCOP-CT, 1/2/4/8 threads");
  TablePrinter table({"threads", "seconds", "speedup", "distance calls",
                      "cache hits", "output hash"});
  double serial_seconds = 0.0;
  uint64_t reference_hash = 0;
  uint64_t reference_calls = 0;
  bool ok = true;
  for (int threads : {1, 2, 4, 8}) {
    WcopOptions options;
    options.seed = scale.seed + 2;
    options.threads = threads;
    telemetry::Telemetry tel;
    options.telemetry = &tel;
    double best_seconds = 0.0;
    uint64_t hash = 0;
    uint64_t calls = 0;
    uint64_t hits = 0;
    telemetry::MetricsSnapshot metrics;
    for (int rep = 0; rep < repeats; ++rep) {
      Stopwatch timer;
      Result<AnonymizationResult> r = RunWcopCt(dataset, options);
      const double seconds = timer.ElapsedSeconds();
      if (!r.ok()) {
        std::cerr << "run failed at --threads=" << threads << ": "
                  << r.status() << "\n";
        return 1;
      }
      if (rep == 0 || seconds < best_seconds) {
        best_seconds = seconds;
      }
      hash = HashDataset(r->sanitized);
      calls = r->report.metrics.CounterValue("distance.calls.edr");
      hits = r->report.metrics.CounterValue("distance.cache_hits");
      metrics = r->report.metrics;
    }
    if (threads == 1) {
      serial_seconds = best_seconds;
      reference_hash = hash;
      reference_calls = calls;
    } else {
      if (hash != reference_hash) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: --threads=%d output hash "
                     "%016llx != serial %016llx\n",
                     threads, static_cast<unsigned long long>(hash),
                     static_cast<unsigned long long>(reference_hash));
        ok = false;
      }
      if (calls != reference_calls) {
        std::fprintf(stderr,
                     "ACCOUNTING VIOLATION: --threads=%d distance calls "
                     "%llu != serial %llu\n",
                     threads, static_cast<unsigned long long>(calls),
                     static_cast<unsigned long long>(reference_calls));
        ok = false;
      }
    }
    char hash_buf[32];
    std::snprintf(hash_buf, sizeof(hash_buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    table.AddRow({std::to_string(threads), FormatSignificant(best_seconds, 3),
                  FormatSignificant(serial_seconds / best_seconds, 3),
                  std::to_string(calls), std::to_string(hits), hash_buf});
    json_out.Add("parallel_scaling/wcop_ct",
                 {{"threads", static_cast<double>(threads)},
                  {"trajectories", static_cast<double>(scale.trajectories)},
                  {"points", static_cast<double>(scale.points)},
                  {"hardware_concurrency", static_cast<double>(hardware)},
                  {"speedup", serial_seconds / best_seconds},
                  {"distance_calls", static_cast<double>(calls)},
                  {"output_identical", threads == 1 ? 1.0
                                                    : (hash == reference_hash
                                                           ? 1.0
                                                           : 0.0)}},
                 best_seconds, metrics);
  }
  table.Print(std::cout);
  if (!json_out.Flush()) {
    return 1;
  }
  if (max_edr_calls > 0 && reference_calls > max_edr_calls) {
    std::fprintf(stderr,
                 "EDR CALL CEILING EXCEEDED: %llu exact distance "
                 "computations > --max-edr-calls=%llu (cascade regression)\n",
                 static_cast<unsigned long long>(reference_calls),
                 static_cast<unsigned long long>(max_edr_calls));
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "FAILED: results differ across thread counts\n");
    return 1;
  }
  std::printf("all thread counts produced identical output and accounting\n");
  return 0;
}
