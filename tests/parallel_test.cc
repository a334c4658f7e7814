#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "anon/distance_cache.h"
#include "anon/types.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "test_util.h"

namespace wcop {
namespace {

using parallel::ParallelFor;
using parallel::ParallelMap;
using parallel::ParallelOptions;
using parallel::ResolveThreads;
using parallel::ThreadPool;
using testing_util::SmallSynthetic;

ParallelOptions WithThreads(int threads, size_t grain = 0) {
  ParallelOptions options;
  options.threads = threads;
  options.grain = grain;
  return options;
}

// ---------------------------------------------------------------------------
// Thread-count resolution.
// ---------------------------------------------------------------------------

TEST(ParallelTest, ResolveThreadsPassesPositiveThrough) {
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(7), 7);
}

TEST(ParallelTest, ResolveThreadsDefaultsArePositive) {
  EXPECT_GE(ResolveThreads(0), 1);
  EXPECT_GE(ResolveThreads(-3), 1);
  EXPECT_GE(parallel::DefaultThreads(), 1);
  EXPECT_GE(parallel::HardwareThreads(), 1);
}

// ---------------------------------------------------------------------------
// ParallelFor basics.
// ---------------------------------------------------------------------------

TEST(ParallelTest, EmptyRangeIsNoop) {
  bool touched = false;
  Status s = ParallelFor(0, [&](size_t) { touched = true; }, WithThreads(4));
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(touched);
}

TEST(ParallelTest, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    for (size_t grain : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      const size_t n = 257;
      std::vector<std::atomic<int>> hits(n);
      Status s = ParallelFor(
          n, [&](size_t i) { hits[i].fetch_add(1); },
          WithThreads(threads, grain));
      ASSERT_TRUE(s.ok()) << s;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " threads=" << threads << " grain=" << grain;
      }
    }
  }
}

TEST(ParallelTest, SerialAndParallelResultsMatch) {
  const size_t n = 500;
  auto f = [](size_t i) {
    return static_cast<double>(i) * 1.5 + static_cast<double>(i % 7);
  };
  std::vector<double> serial(n), parallel_out(n);
  ASSERT_TRUE(
      ParallelFor(n, [&](size_t i) { serial[i] = f(i); }, WithThreads(1))
          .ok());
  ASSERT_TRUE(ParallelFor(
                  n, [&](size_t i) { parallel_out[i] = f(i); },
                  WithThreads(8, 3))
                  .ok());
  EXPECT_EQ(serial, parallel_out);
}

TEST(ParallelTest, ParallelMapPreservesIndexOrder) {
  for (int threads : {1, 4}) {
    Result<std::vector<size_t>> out = ParallelMap<size_t>(
        100, [](size_t i) { return i * i; }, WithThreads(threads));
    ASSERT_TRUE(out.ok()) << out.status();
    for (size_t i = 0; i < out->size(); ++i) {
      EXPECT_EQ((*out)[i], i * i);
    }
  }
}

TEST(ParallelTest, TasksCounterCoversAllChunks) {
  telemetry::Telemetry tel;
  ParallelOptions options = WithThreads(4, 10);
  options.telemetry = &tel;
  ASSERT_TRUE(ParallelFor(100, [](size_t) {}, options).ok());
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("parallel.tasks"), 10u);  // 100 items / 10
  EXPECT_EQ(snap.CounterValue("parallel.batches"), 1u);
}

// ---------------------------------------------------------------------------
// Exception propagation.
// ---------------------------------------------------------------------------

TEST(ParallelTest, ExceptionPropagatesSerial) {
  EXPECT_THROW(
      {
        Status s = ParallelFor(
            10,
            [](size_t i) {
              if (i == 3) {
                throw std::runtime_error("boom");
              }
            },
            WithThreads(1));
        (void)s;
      },
      std::runtime_error);
}

TEST(ParallelTest, ExceptionPropagatesParallel) {
  std::atomic<int> ran{0};
  EXPECT_THROW(
      {
        Status s = ParallelFor(
            1000,
            [&](size_t i) {
              ran.fetch_add(1);
              if (i == 17) {
                throw std::runtime_error("boom");
              }
            },
            WithThreads(4, 1));
        (void)s;
      },
      std::runtime_error);
  // The throwing chunk stops further claiming; in-flight chunks may finish.
  EXPECT_GE(ran.load(), 1);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation at chunk boundaries.
// ---------------------------------------------------------------------------

TEST(ParallelTest, CancellationStopsSerialLoopAtChunkBoundary) {
  CancellationToken token;
  RunContext context;
  context.set_cancellation_token(token);
  size_t executed = 0;
  ParallelOptions options = WithThreads(1, 5);
  options.context = &context;
  Status s = ParallelFor(
      1000,
      [&](size_t) {
        ++executed;
        token.RequestCancellation();  // trips before the *next* chunk
      },
      options);
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
  EXPECT_EQ(executed, 5u);  // exactly the first chunk
}

TEST(ParallelTest, CancellationStopsParallelLoop) {
  CancellationToken token;
  RunContext context;
  context.set_cancellation_token(token);
  std::atomic<size_t> executed{0};
  ParallelOptions options = WithThreads(4, 1);
  options.context = &context;
  Status s = ParallelFor(
      100000,
      [&](size_t) {
        executed.fetch_add(1);
        token.RequestCancellation();
      },
      options);
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
  EXPECT_LT(executed.load(), 100000u);  // the trip stopped chunk claiming
}

TEST(ParallelTest, PreCancelledContextRunsNothing) {
  CancellationToken token;
  token.RequestCancellation();
  RunContext context;
  context.set_cancellation_token(token);
  std::atomic<size_t> executed{0};
  for (int threads : {1, 4}) {
    ParallelOptions options = WithThreads(threads, 1);
    options.context = &context;
    Status s =
        ParallelFor(100, [&](size_t) { executed.fetch_add(1); }, options);
    EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
  }
  EXPECT_EQ(executed.load(), 0u);
}

// ---------------------------------------------------------------------------
// Pool lifecycle.
// ---------------------------------------------------------------------------

TEST(ParallelTest, PoolStartStopIsIdempotentAndRestartable) {
  ThreadPool& pool = ThreadPool::Global();
  pool.Shutdown();  // from any prior state
  pool.Shutdown();  // idempotent on a stopped pool
  EXPECT_EQ(pool.worker_count(), 0);

  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.worker_count(), 3);
  pool.EnsureWorkers(2);  // grow-only: shrinking requests are no-ops
  EXPECT_EQ(pool.worker_count(), 3);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.worker_count(), 3);

  pool.Shutdown();
  EXPECT_EQ(pool.worker_count(), 0);

  // Restart after shutdown: ParallelFor must work again.
  std::atomic<size_t> count{0};
  Status s = ParallelFor(
      100, [&](size_t) { count.fetch_add(1); }, WithThreads(4, 1));
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(count.load(), 100u);
  EXPECT_GE(pool.worker_count(), 1);
}

TEST(ParallelTest, SerialPathNeverStartsThePool) {
  ThreadPool& pool = ThreadPool::Global();
  pool.Shutdown();
  ASSERT_EQ(pool.worker_count(), 0);
  size_t executed = 0;
  ASSERT_TRUE(
      ParallelFor(50, [&](size_t) { ++executed; }, WithThreads(1)).ok());
  EXPECT_EQ(executed, 50u);
  EXPECT_EQ(pool.worker_count(), 0);
}

// ---------------------------------------------------------------------------
// PairDistanceCache: value correctness + exact accounting.
// ---------------------------------------------------------------------------

TEST(PairDistanceCacheTest, ValuesMatchDirectComputation) {
  const Dataset d = SmallSynthetic(16, 24);
  DistanceConfig config;
  config.edr_scale = 1000.0;
  config.tolerance = EdrTolerance{100.0, 100.0, 600.0};
  PairDistanceCache cache(d, config, nullptr, nullptr, 200);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < d.size(); ++j) {
      const double expected =
          i == j ? 0.0 : ClusterDistance(d[i], d[j], config);
      EXPECT_DOUBLE_EQ(cache.Get(i, j), expected) << i << "," << j;
    }
  }
}

TEST(PairDistanceCacheTest, RepeatedLookupsKeepExactAccounting) {
  const Dataset d = SmallSynthetic(24, 20);
  DistanceConfig config;
  config.edr_scale = 1000.0;
  config.tolerance = EdrTolerance{100.0, 100.0, 600.0};
  telemetry::Telemetry tel;
  RunContext context;
  const size_t n = d.size();
  PairDistanceCache cache(d, config, &context, &tel, n * n);

  // Every ordered pair is looked up 8 times, in both orientations and with
  // both lookup flavours interleaved.
  const size_t lookups = n * n * 8;
  for (size_t t = 0; t < lookups; ++t) {
    const size_t i = (t / n) % n;
    const size_t j = t % n;
    const double got = (t % 3 == 0)
                           ? cache.GetWithCutoff(i, j, 1e18)  // never abandons
                           : cache.Get(i, j);
    const double expected = i == j ? 0.0 : ClusterDistance(d[i], d[j], config);
    ASSERT_DOUBLE_EQ(got, expected) << "lookup " << t;
  }

  // Accounting: each distinct pair resolved exactly once — by the DP
  // (charged to distance.calls.edr and the RunContext budget) or by an
  // analytic cascade certificate (free) — and every other lookup is a
  // cache hit.
  const size_t distinct_pairs = n * (n - 1) / 2;
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  EXPECT_EQ(cache.computed() + cache.analytic(), distinct_pairs);
  EXPECT_GT(cache.computed(), 0u);
  EXPECT_EQ(snap.CounterValue("distance.calls.edr"), cache.computed());
  // No cutoff ever certified a bound (1e18 never abandons): the abandon
  // tally is exactly the analytic resolutions.
  EXPECT_EQ(cache.abandoned(), cache.analytic());
  const size_t diagonal_lookups = lookups / n;  // i == j short-circuits
  EXPECT_EQ(snap.CounterValue("distance.cache_hits"),
            lookups - diagonal_lookups - distinct_pairs);
  EXPECT_EQ(context.distance_computations(), cache.computed());
}

TEST(PairDistanceCacheTest, BoundEntriesUpgradeToExact) {
  // Two overlapping trajectories of very different lengths: the length
  // lower bound exceeds a small cutoff, so the first lookup abandons, but
  // the MBRs overlap and points match, so no analytic certificate applies
  // — a later lookup with a generous cutoff must upgrade the stored bound
  // to the DP's exact distance and charge exactly once.
  Dataset d(std::vector<Trajectory>{
      testing_util::MakeLine(1, 0.0, 0.0, 10.0, 0.0, 4),
      testing_util::MakeLine(2, 0.0, 0.0, 10.0, 0.0, 40),
  });
  DistanceConfig config;
  config.edr_scale = 1000.0;
  config.tolerance = EdrTolerance{100.0, 100.0, 600.0};
  telemetry::Telemetry tel;
  PairDistanceCache cache(d, config, nullptr, &tel, 4);
  ASSERT_TRUE(cache.cascade_active());

  const double bound = cache.GetWithCutoff(0, 1, 1e-6);
  EXPECT_GT(bound, 1e-6);  // served the (abandoning) lower bound
  EXPECT_EQ(cache.abandoned(), 1u);
  EXPECT_EQ(cache.computed(), 0u);

  // Cutoff still below the stored bound: served from the cache as a hit.
  const double again = cache.GetWithCutoff(0, 1, 1e-6);
  EXPECT_DOUBLE_EQ(again, bound);
  EXPECT_EQ(cache.abandoned(), 1u);

  // A non-decisive access upgrades to the exact value.
  const double exact = cache.Get(0, 1);
  EXPECT_DOUBLE_EQ(exact, ClusterDistance(d[0], d[1], config));
  EXPECT_GE(exact, bound);  // it was a true lower bound
  EXPECT_EQ(cache.computed(), 1u);
  EXPECT_EQ(cache.analytic(), 0u);
  // ...and is then served as an exact hit whatever the cutoff.
  EXPECT_DOUBLE_EQ(cache.GetWithCutoff(0, 1, 1e-6), exact);
  EXPECT_EQ(cache.computed(), 1u);
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("distance.calls.edr"), 1u);
  EXPECT_EQ(snap.CounterValue("distance.early_abandoned"), 1u);
  EXPECT_EQ(snap.CounterValue("distance.lb.length_pruned"), 1u);
  EXPECT_EQ(snap.CounterValue("distance.cache_hits"), 2u);
}

TEST(PairDistanceCacheTest, PlainKindsNeverStoreBounds) {
  // Without the cascade (synchronized Euclidean, or EDR at a non-positive
  // scale) there is no certified bound: a cutoff lookup computes the exact
  // distance once, charges it, and serves every repeat from the cache.
  Dataset d(std::vector<Trajectory>{
      testing_util::MakeLine(1, 0.0, 0.0, 10.0, 0.0, 4),
      testing_util::MakeLine(2, 0.0, 500.0, 10.0, 0.0, 40),
  });
  for (const auto kind : {DistanceConfig::Kind::kSynchronizedEuclidean,
                          DistanceConfig::Kind::kEdr}) {
    DistanceConfig config;
    config.kind = kind;
    config.tolerance = EdrTolerance{100.0, 100.0, 600.0};
    telemetry::Telemetry tel;
    RunContext context;
    PairDistanceCache cache(d, config, &context, &tel, 4);
    ASSERT_FALSE(cache.cascade_active());
    const double expected = ClusterDistance(d[0], d[1], config);
    EXPECT_DOUBLE_EQ(cache.GetWithCutoff(0, 1, -1.0), expected);
    EXPECT_DOUBLE_EQ(cache.GetWithCutoff(1, 0, -1.0), expected);
    EXPECT_DOUBLE_EQ(cache.Get(0, 1), expected);
    EXPECT_EQ(cache.computed(), 1u);
    EXPECT_EQ(cache.abandoned(), 0u);
    EXPECT_EQ(context.distance_computations(), 1u);
    const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
    EXPECT_EQ(snap.CounterValue(DistanceCallCounterName(config)), 1u);
    EXPECT_EQ(snap.CounterValue("distance.cache_hits"), 2u);
    EXPECT_EQ(snap.CounterValue("distance.early_abandoned"), 0u);
  }
}

TEST(PairDistanceCacheTest, CascadeServesAnalyticExactsWithoutCharging) {
  // Same pair with the cascade on. The y-gap (500 > dy + dy-extent) makes
  // the dilated MBRs disjoint, so the separation rung *knows* the distance
  // is edr_scale without running the DP: a cutoff lookup first abandons on
  // the O(1) length bound, and the later unbounded lookup resolves
  // analytically — distance.calls.edr stays zero.
  Dataset d(std::vector<Trajectory>{
      testing_util::MakeLine(1, 0.0, 0.0, 10.0, 0.0, 4),
      testing_util::MakeLine(2, 0.0, 500.0, 10.0, 0.0, 40),
  });
  DistanceConfig config;
  config.edr_scale = 1000.0;
  config.tolerance = EdrTolerance{100.0, 100.0, 600.0};
  telemetry::Telemetry tel;
  PairDistanceCache cache(d, config, nullptr, &tel, 4);
  ASSERT_TRUE(cache.cascade_active());

  const double bound = cache.GetWithCutoff(0, 1, 1e-6);
  EXPECT_GT(bound, 1e-6);
  EXPECT_EQ(cache.abandoned(), 1u);
  EXPECT_EQ(cache.computed(), 0u);

  const double exact = cache.Get(0, 1);
  EXPECT_DOUBLE_EQ(exact, ClusterDistance(d[0], d[1], config));
  EXPECT_DOUBLE_EQ(exact, config.edr_scale);  // separation: max-length cost
  EXPECT_GE(exact, bound);
  EXPECT_EQ(cache.computed(), 0u);
  EXPECT_EQ(cache.analytic(), 1u);
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("distance.calls.edr"), 0u);
  // Two DP-free resolutions: the length-bound serve, then the analytic
  // separation exact; lb.* records the rung of each.
  EXPECT_EQ(snap.CounterValue("distance.early_abandoned"), 2u);
  EXPECT_EQ(snap.CounterValue("distance.lb.length_pruned"), 1u);
  EXPECT_EQ(snap.CounterValue("distance.lb.separation_pruned"), 1u);

  // CheapProbe on a resolved pair serves the cached exact as a hit.
  const auto probe = cache.CheapProbe(0, 1);
  EXPECT_TRUE(probe.exact);
  EXPECT_DOUBLE_EQ(probe.value, exact);
}

}  // namespace
}  // namespace wcop
