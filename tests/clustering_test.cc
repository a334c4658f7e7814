#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "anon/greedy_clustering.h"
#include "anon/wcop_ct.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

WcopOptions ResolvedFor(const Dataset& d) {
  return ResolveOptions(d, WcopOptions{});
}

TEST(GreedyClusteringTest, InvariantsOnSynthetic) {
  const Dataset d = SmallSynthetic(40, 50, /*k_max=*/5);
  const WcopOptions options = ResolvedFor(d);
  Result<ClusteringOutcome> out =
      GreedyClustering(d, /*trash_max=*/4, options);
  ASSERT_TRUE(out.ok()) << out.status();

  std::set<size_t> seen;
  for (const AnonymityCluster& c : out->clusters) {
    // Pivot is a member.
    EXPECT_NE(std::find(c.members.begin(), c.members.end(), c.pivot),
              c.members.end());
    int max_k = 0;
    double min_delta = 1e18;
    for (size_t m : c.members) {
      EXPECT_TRUE(seen.insert(m).second) << "trajectory in two clusters";
      max_k = std::max(max_k, d[m].requirement().k);
      min_delta = std::min(min_delta, d[m].requirement().delta);
    }
    // Cluster satisfies its own k (which covers every member's k_i).
    EXPECT_GE(c.members.size(), static_cast<size_t>(c.k));
    EXPECT_GE(c.k, max_k);
    EXPECT_DOUBLE_EQ(c.delta, min_delta);
  }
  for (size_t idx : out->trash) {
    EXPECT_TRUE(seen.insert(idx).second) << "trashed and clustered";
  }
  // Full coverage: every input trajectory is clustered or trashed.
  EXPECT_EQ(seen.size(), d.size());
  EXPECT_LE(out->trash.size(), 4u);
}

TEST(GreedyClusteringTest, DeterministicForSeed) {
  const Dataset d = SmallSynthetic(30, 40);
  WcopOptions options = ResolvedFor(d);
  options.seed = 99;
  const auto a = GreedyClustering(d, 3, options);
  const auto b = GreedyClustering(d, 3, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->clusters.size(), b->clusters.size());
  for (size_t i = 0; i < a->clusters.size(); ++i) {
    EXPECT_EQ(a->clusters[i].pivot, b->clusters[i].pivot);
    EXPECT_EQ(a->clusters[i].members, b->clusters[i].members);
  }
}

TEST(GreedyClusteringTest, UnsatisfiableKFails) {
  // k greater than the dataset size can never be satisfied.
  Dataset d;
  for (int i = 0; i < 5; ++i) {
    d.Add(MakeLineWithReq(i, i * 10.0, 0, 1, 0, 10, /*k=*/50, /*delta=*/100));
  }
  WcopOptions options = ResolvedFor(d);
  options.max_clustering_rounds = 4;
  Result<ClusteringOutcome> out = GreedyClustering(d, /*trash_max=*/0, options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsatisfiable);
}

TEST(GreedyClusteringTest, UnsatisfiableToleratedViaTrash) {
  // Same dataset, but allowing everything to be trashed succeeds.
  Dataset d;
  for (int i = 0; i < 5; ++i) {
    d.Add(MakeLineWithReq(i, i * 10.0, 0, 1, 0, 10, /*k=*/50, /*delta=*/100));
  }
  Result<ClusteringOutcome> out =
      GreedyClustering(d, /*trash_max=*/5, ResolvedFor(d));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->trash.size(), 5u);
  EXPECT_TRUE(out->clusters.empty());
}

TEST(GreedyClusteringTest, TightRadiusRelaxesUntilSolved) {
  const Dataset d = SmallSynthetic(30, 40, /*k_max=*/3);
  WcopOptions options = ResolvedFor(d);
  options.radius_max = 1e-6;  // absurdly tight: forces relaxation rounds
  options.radius_growth = 4.0;
  Result<ClusteringOutcome> out = GreedyClustering(d, 3, options);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_GT(out->rounds, 1u);
  EXPECT_GT(out->final_radius, 1e-6);
}

TEST(GreedyClusteringTest, RejectsBadArguments) {
  const Dataset d = SmallSynthetic(10, 30);
  WcopOptions options = ResolvedFor(d);
  EXPECT_FALSE(GreedyClustering(Dataset(), 0, options).ok());
  options.radius_max = 0.0;
  EXPECT_FALSE(GreedyClustering(d, 0, options).ok());
  options = ResolvedFor(d);
  options.radius_growth = 1.0;
  EXPECT_FALSE(GreedyClustering(d, 0, options).ok());
}

TEST(GreedyClusteringTest, LeftoverJoinsOnlyCompatibleCluster) {
  // Two identical bundles of k=2 trajectories plus one leftover demanding
  // delta stricter than any cluster's current delta: must be trashed.
  Dataset d;
  d.Add(MakeLineWithReq(0, 0, 0, 1, 0, 20, 2, 100.0));
  d.Add(MakeLineWithReq(1, 0, 1, 1, 0, 20, 2, 100.0));
  d.Add(MakeLineWithReq(2, 0, 2, 1, 0, 20, 2, 100.0));
  d.Add(MakeLineWithReq(3, 0, 3, 1, 0, 20, 2, 100.0));
  // The demanding one wants delta=1 but every cluster will have delta=100;
  // since cluster.delta (100) > tau.delta (1), it cannot join — and its own
  // pivot attempt can form a cluster only if its neighbour tolerates it.
  d.Add(MakeLineWithReq(4, 0, 50.0, 1, 0, 20, 3, 1.0));
  WcopOptions options = ResolvedFor(d);
  options.seed = 3;
  Result<ClusteringOutcome> out = GreedyClustering(d, 5, options);
  ASSERT_TRUE(out.ok());
  // Trajectory 4 either anchors its own satisfying cluster (k=3, delta=1)
  // or lands in the trash; it can never ride along a delta=100 cluster
  // whose delta exceeds its own.
  for (const AnonymityCluster& c : out->clusters) {
    const bool has4 =
        std::find(c.members.begin(), c.members.end(), 4u) != c.members.end();
    if (has4) {
      EXPECT_LE(c.delta, 1.0);
      EXPECT_GE(c.members.size(), 3u);
    }
  }
}

TEST(GreedyClusteringTest, CascadePrunesAndAbandonsOnStockConfig) {
  // Regression guard for the early-abandon path and the cascade counters:
  // on a stock synthetic workload the cutoff-certified bounds must
  // actually fire, and the number of exact DP computations must drop
  // strictly below what an exhaustive scan runs. That baseline is
  // analytic. In one round, the round's cutoff radius_max = edr_scale
  // admits every distance, so an exhaustive scan runs the DP once per
  // distinct (pivot, unclustered candidate) pair. RunContext counts every
  // scanned pair; a pair is scanned twice only when the first of its two
  // pivots was rejected (an accepted pivot is clustered, so no later scan
  // sees it), so at most (n - 1) pairs per rejected attempt repeat.
  const Dataset d = SmallSynthetic(40, 50, /*k_max=*/5);
  WcopOptions options = ResolvedFor(d);
  ASSERT_EQ(options.radius_max, options.distance.edr_scale);
  telemetry::Telemetry tel;
  options.telemetry = &tel;
  RunContext context;
  options.run_context = &context;
  const auto outcome = GreedyClustering(d, 4, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->rounds, 1u);
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  const uint64_t rejected = snap.CounterValue("cluster.rejected.radius") +
                            snap.CounterValue("cluster.rejected.exhausted");
  ASSERT_GT(context.candidate_pairs(), rejected * (d.size() - 1));
  const uint64_t exhaustive_calls_at_least =
      context.candidate_pairs() - rejected * (d.size() - 1);

  EXPECT_GT(snap.CounterValue("distance.early_abandoned"), 0u);
  const uint64_t lb_pruned =
      snap.CounterValue("distance.lb.length_pruned") +
      snap.CounterValue("distance.lb.separation_pruned") +
      snap.CounterValue("distance.lb.envelope_pruned") +
      snap.CounterValue("distance.lb.band_pruned");
  EXPECT_GT(lb_pruned, 0u);
  EXPECT_LT(snap.CounterValue("distance.calls.edr"),
            exhaustive_calls_at_least);
  EXPECT_EQ(context.distance_computations(),
            snap.CounterValue("distance.calls.edr"));
}

}  // namespace
}  // namespace wcop
