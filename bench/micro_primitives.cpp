// Micro-benchmarks of the computational primitives behind the WCOP suite:
// EDR distance / op reconstruction, synchronized Euclidean distance, DBSCAN,
// grid-index range queries, TRACLUS MDL partitioning, greedy clustering,
// the translation phase, the store's record codecs and CRC-32. google-benchmark
// binary — runs standalone.
//
// `--json-out=FILE` (the shared bench_util flag) additionally captures every
// run as a machine-readable record; all other flags pass through to
// google-benchmark (--benchmark_filter=..., etc).

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "anon/greedy_clustering.h"
#include "anon/translation.h"
#include "anon/wcop_ct.h"
#include "bench_util.h"
#include "cluster/dbscan.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "distance/edr.h"
#include "distance/edr_bounds.h"
#include "distance/edr_kernel.h"
#include "distance/euclidean.h"
#include "index/grid_index.h"
#include "mod/trajectory_store.h"
#include "segment/traclus.h"
#include "store/store_file.h"

using namespace wcop;
using namespace wcop::bench;

namespace {

Dataset SmallDataset(size_t n, size_t points) {
  BenchScale scale;
  scale.trajectories = n;
  scale.points = points;
  Dataset d = MakeBenchDataset(scale);
  AssignPaperRequirements(&d, 5, 250.0, 11);
  return d;
}

void BM_EdrDistance(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrDistance(d[0], d[1], tol));
  }
  state.SetComplexityN(static_cast<int64_t>(points));
}
BENCHMARK(BM_EdrDistance)->Range(32, 512)->Complexity(benchmark::oNSquared);

void BM_EdrOpSequence(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrOpSequence(d[0], d[1], tol));
  }
}
BENCHMARK(BM_EdrOpSequence)->Range(32, 256);

// The three EDR kernels head-to-head on the same pair: classic two-row
// scalar DP, the Hyyrö bit-parallel formulation, and the Ukkonen band (full
// width, so all three produce the exact distance). Divergence between the
// per-iteration times here is what the dispatch heuristic in EdrOps trades
// on.
void BM_EdrScalarKernel(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrOpsScalar(d[0], d[1], tol));
  }
  state.SetComplexityN(static_cast<int64_t>(points));
}
BENCHMARK(BM_EdrScalarKernel)->Range(32, 512)
    ->Complexity(benchmark::oNSquared);

void BM_EdrBitParallelKernel(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrOpsBitParallel(d[0], d[1], tol));
  }
  state.SetComplexityN(static_cast<int64_t>(points));
}
BENCHMARK(BM_EdrBitParallelKernel)->Range(32, 512)
    ->Complexity(benchmark::oNSquared);

// Banded kernel at a fixed narrow band (16): the shape the refine stage
// sees once the top-k threshold has tightened the cutoff. Cost is
// O(n * band) instead of O(n * m), and the kernel may abandon with a
// certified bound — both outcomes are representative.
void BM_EdrBandedKernel(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrOpsBanded(d[0], d[1], tol, 16));
  }
  state.SetComplexityN(static_cast<int64_t>(points));
}
BENCHMARK(BM_EdrBandedKernel)->Range(32, 512)->Complexity(benchmark::oN);

// Per-pair cost of each cascade rung, for comparison against the kernels
// they shortcut. Profiles are built once (the cache amortizes them the
// same way), so these measure the incremental bound evaluation.
void BM_EdrSeparationCheck(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  const EdrBoundsProfile pa = EdrBoundsProfile::Of(d[0]);
  const EdrBoundsProfile pb = EdrBoundsProfile::Of(d[1]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrSeparated(pa, pb, tol));
    benchmark::DoNotOptimize(EdrLengthLowerBound(pa, pb));
  }
}
BENCHMARK(BM_EdrSeparationCheck)->Range(32, 512);

void BM_EdrEnvelopeBound(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  const EdrBoundsProfile pa = EdrBoundsProfile::Of(d[0]);
  const EdrBoundsProfile pb = EdrBoundsProfile::Of(d[1]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EdrEnvelopeLowerBound(d[0], pa, d[1], pb, tol));
  }
  state.SetComplexityN(static_cast<int64_t>(points));
}
BENCHMARK(BM_EdrEnvelopeBound)->Range(32, 512)->Complexity(benchmark::oN);

void BM_EdrProfileBuild(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrBoundsProfile::Of(d[0]));
  }
}
BENCHMARK(BM_EdrProfileBuild)->Range(32, 512);

void BM_SynchronizedEuclidean(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SynchronizedEuclideanDistance(d[0], d[1]));
  }
}
BENCHMARK(BM_SynchronizedEuclidean)->Range(32, 512);

void BM_GridIndexRangeQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  GridIndex grid(100.0);
  for (size_t i = 0; i < n; ++i) {
    grid.Insert(i, rng.UniformReal(-50000, 50000),
                rng.UniformReal(-50000, 50000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.RangeQuery(rng.UniformReal(-50000, 50000),
                        rng.UniformReal(-50000, 50000), 500.0));
  }
}
BENCHMARK(BM_GridIndexRangeQuery)->Range(1024, 65536);

void BM_DbscanSnapshot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::pair<double, double>> pts;
  GridIndex grid(200.0);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.UniformReal(-20000, 20000);
    const double y = rng.UniformReal(-20000, 20000);
    pts.emplace_back(x, y);
    grid.Insert(i, x, y);
  }
  auto neighbors = [&](size_t item) {
    return grid.RangeQuery(pts[item].first, pts[item].second, 200.0);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dbscan(n, 3, neighbors));
  }
}
BENCHMARK(BM_DbscanSnapshot)->Range(256, 4096);

void BM_TraclusPartitioning(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(1, points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TraclusCharacteristicPoints(d[0], {}));
  }
}
BENCHMARK(BM_TraclusPartitioning)->Range(64, 1024);

void BM_GreedyClustering(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(n, 80);
  const WcopOptions options = ResolveOptions(d, WcopOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyClustering(d, n / 10, options));
  }
}
BENCHMARK(BM_GreedyClustering)->Range(32, 256)
    ->Unit(benchmark::kMillisecond);

void BM_Translation(benchmark::State& state) {
  const size_t points = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(2, points);
  const EdrTolerance tol = EdrTolerance::FromDeltaMax(250.0, 6.36);
  Rng rng(9);
  for (auto _ : state) {
    TranslationStats stats;
    benchmark::DoNotOptimize(
        TranslateToPivot(d[0], d[1], 100.0, tol, &rng, &stats));
  }
}
BENCHMARK(BM_Translation)->Range(32, 256);

void BM_StoreRangeQuery(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(n, 80);
  Result<TrajectoryStore> store = TrajectoryStore::Build(d);
  Rng rng(7);
  const double radius = d.Bounds().HalfDiagonal();
  for (auto _ : state) {
    const Trajectory& t = d[rng.UniformIndex(d.size())];
    const Point& p = t[rng.UniformIndex(t.size())];
    StRange range;
    range.x_lo = p.x - 0.02 * radius;
    range.x_hi = p.x + 0.02 * radius;
    range.y_lo = p.y - 0.02 * radius;
    range.y_hi = p.y + 0.02 * radius;
    range.t_lo = p.t - 600.0;
    range.t_hi = p.t + 600.0;
    benchmark::DoNotOptimize(store->RangeQuery(range));
  }
}
BENCHMARK(BM_StoreRangeQuery)->Range(64, 512);

void BM_StoreNearestAt(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(n, 80);
  Result<TrajectoryStore> store = TrajectoryStore::Build(d);
  Rng rng(7);
  for (auto _ : state) {
    const Trajectory& t = d[rng.UniformIndex(d.size())];
    const Point& p = t[rng.UniformIndex(t.size())];
    benchmark::DoNotOptimize(store->NearestAt(p.x, p.y, p.t, 5));
  }
}
BENCHMARK(BM_StoreNearestAt)->Range(64, 512);

// Store record codecs over 1k records x 8 points: the text record of
// AppendTrajectoryRecord / ParseTrajectoryRecord (WCOP-B and shard
// checkpoints, v1 store blocks) against the v2 binary block payload the store writes. The
// `per_double` counter is seconds per double a record carries (x, y, t per
// point, plus delta), printed with an SI prefix: "100n" is 100 ns.
constexpr size_t kCodecRecords = 1000;
constexpr size_t kCodecPoints = 8;

void SetPerDouble(benchmark::State& state, const Dataset& d) {
  const double doubles =
      static_cast<double>(3 * d.TotalPoints() + d.size());
  state.counters["per_double"] = benchmark::Counter(
      doubles, benchmark::Counter::kIsIterationInvariantRate |
                   benchmark::Counter::kInvert);
}

void BM_StoreRecordEncode(benchmark::State& state) {
  const Dataset d = SmallDataset(kCodecRecords, kCodecPoints);
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const Trajectory& t : d.trajectories()) {
      store::AppendTrajectoryRecord(&out, t);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  SetPerDouble(state, d);
}
BENCHMARK(BM_StoreRecordEncode);

void BM_StoreRecordDecode(benchmark::State& state) {
  const Dataset d = SmallDataset(kCodecRecords, kCodecPoints);
  std::string payload;
  for (const Trajectory& t : d.trajectories()) {
    store::AppendTrajectoryRecord(&payload, t);
  }
  for (auto _ : state) {
    size_t pos = 0;
    for (size_t i = 0; i < d.size(); ++i) {
      Result<Trajectory> t = store::ParseTrajectoryRecord(payload, &pos);
      benchmark::DoNotOptimize(t);
    }
  }
  SetPerDouble(state, d);
}
BENCHMARK(BM_StoreRecordDecode);

void BM_StoreBlockEncode(benchmark::State& state) {
  const Dataset d = SmallDataset(kCodecRecords, kCodecPoints);
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const Trajectory& t : d.trajectories()) {
      store::AppendBinaryTrajectoryRecord(&out, t);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  SetPerDouble(state, d);
}
BENCHMARK(BM_StoreBlockEncode);

void BM_StoreBlockDecode(benchmark::State& state) {
  const Dataset d = SmallDataset(kCodecRecords, kCodecPoints);
  std::vector<std::string> payloads(d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    store::AppendBinaryTrajectoryRecord(&payloads[i], d[i]);
  }
  for (auto _ : state) {
    for (const std::string& payload : payloads) {
      Result<Trajectory> t = store::ParseBinaryTrajectoryRecord(payload);
      benchmark::DoNotOptimize(t);
    }
  }
  SetPerDouble(state, d);
}
BENCHMARK(BM_StoreBlockDecode);

// CRC-32 of the store blocks, index, snapshots and file digests, in
// bytes/s at a small block, a page and a large file section.
void BM_Crc32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::string bytes(n, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rng.UniformInt(0, 255));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4 << 10)->Arg(1 << 20);

void BM_WcopCtEndToEnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(n, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunWcopCt(d));
  }
}
BENCHMARK(BM_WcopCtEndToEnd)->Range(32, 128)->Unit(benchmark::kMillisecond);

// With a sink attached: the same pipeline paying for counters and spans.
// Comparing against BM_WcopCtEndToEnd quantifies the observability overhead
// on a real run (the acceptance bar is "negligible against the quadratic
// distance work", not zero).
void BM_WcopCtEndToEndTelemetry(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset d = SmallDataset(n, 60);
  for (auto _ : state) {
    telemetry::Telemetry tel;
    WcopOptions options;
    options.telemetry = &tel;
    benchmark::DoNotOptimize(RunWcopCt(d, options));
  }
}
BENCHMARK(BM_WcopCtEndToEndTelemetry)
    ->Range(32, 128)
    ->Unit(benchmark::kMillisecond);

// Raw cost of the telemetry primitives themselves.
void BM_TelemetryCounterAdd(benchmark::State& state) {
  telemetry::Telemetry tel;
  telemetry::Counter* counter = tel.metrics().GetCounter("bench.counter");
  for (auto _ : state) {
    telemetry::CounterAdd(counter);
  }
  benchmark::DoNotOptimize(counter->value());
}
BENCHMARK(BM_TelemetryCounterAdd);

// The disabled path every instrumented call site pays without a sink.
void BM_TelemetryCounterAddNull(benchmark::State& state) {
  telemetry::Counter* counter = nullptr;
  for (auto _ : state) {
    telemetry::CounterAdd(counter);
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_TelemetryCounterAddNull);

void BM_TelemetryHistogramRecord(benchmark::State& state) {
  telemetry::Telemetry tel;
  telemetry::Histogram* hist = tel.metrics().GetHistogram("bench.hist");
  uint64_t v = 1;
  for (auto _ : state) {
    hist->Record(v);
    v = (v * 2862933555777941757ull + 3037000493ull) >> 16;  // cheap lcg
  }
  benchmark::DoNotOptimize(hist->count());
}
BENCHMARK(BM_TelemetryHistogramRecord);

void BM_TelemetryScopedSpan(benchmark::State& state) {
  telemetry::Telemetry tel;
  for (auto _ : state) {
    WCOP_TRACE_SPAN(&tel, "bench/span");
  }
  benchmark::DoNotOptimize(tel.trace().event_count());
}
// Fixed iteration count: every span is kept in the recorder, so an
// auto-scaled run would grow the event vector into the hundreds of MB.
BENCHMARK(BM_TelemetryScopedSpan)->Iterations(1 << 16);

void BM_TelemetryScopedSpanNull(benchmark::State& state) {
  telemetry::Telemetry* tel = nullptr;
  for (auto _ : state) {
    WCOP_TRACE_SPAN(tel, "bench/span");
    benchmark::DoNotOptimize(tel);
  }
}
BENCHMARK(BM_TelemetryScopedSpanNull);

// Console reporting as usual, plus one JsonOut record per run so the
// harness's --json-out works here like in every other bench binary.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(JsonOut* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      const double iterations =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      out_->Add("micro/" + run.benchmark_name(),
                {{"iterations", iterations},
                 {"per_iteration_seconds",
                  run.real_accumulated_time / iterations}},
                run.real_accumulated_time, {});
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  JsonOut* out_;
};

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark rejects flags it does not know, so --json-out (and the
  // argv[0]-preserving remainder) is peeled off before Initialize().
  ArgParser args(argc, argv);
  JsonOut json_out(args);
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out", 10) != 0) {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_argv.data())) {
    return 1;
  }
  JsonCaptureReporter reporter(&json_out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_out.Flush()) {
    return 1;
  }
  return 0;
}
