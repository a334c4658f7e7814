// Differential oracle for WCOP-Clustering (Algorithm 3).
//
// ReferenceClustering below is the algorithm written out the slow, obvious
// way: serial, exact ClusterDistance for every pair it looks at, a full
// std::sort of every unclustered candidate per pivot, an index-sorted
// active list compacted after every attempt, and no grid, bound cascade,
// cache or thread pool. GreedyClustering must reproduce it exactly —
// clusters (pivot, member order, k, delta), trash, rounds, final radius and
// the total candidate-pair charge — on seeded adversarial inputs, for both
// pivot policies, at one and four threads (the clustering loop is serial;
// the thread count must not reach it). EDR with a positive scale runs the
// grid + bound cascade; synchronized Euclidean (NWA) and a zero EDR scale
// take the plain exhaustive scan, and are diffed here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "anon/greedy_clustering.h"
#include "anon/wcop_ct.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

Result<ClusteringOutcome> ReferenceClustering(const Dataset& d,
                                              size_t trash_max,
                                              const WcopOptions& options,
                                              uint64_t* candidate_pairs) {
  const size_t n = d.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot cluster an empty dataset");
  }
  if (options.radius_max <= 0.0 || options.radius_growth <= 1.0) {
    return Status::InvalidArgument("bad radius options");
  }
  std::vector<double> memo(n * n, std::numeric_limits<double>::quiet_NaN());
  auto dist = [&](size_t i, size_t j) {
    if (i == j) {
      return 0.0;
    }
    double& slot = memo[std::min(i, j) * n + std::max(i, j)];
    if (std::isnan(slot)) {
      slot = ClusterDistance(d[i], d[j], options.distance);
    }
    return slot;
  };
  Rng rng(options.seed);
  double radius_max = options.radius_max;
  for (size_t round = 0; round < options.max_clustering_rounds; ++round) {
    std::vector<size_t> active(n);
    for (size_t i = 0; i < n; ++i) {
      active[i] = i;
    }
    std::vector<bool> clustered(n, false);
    std::vector<AnonymityCluster> clusters;
    std::vector<size_t> chosen;
    while (!active.empty()) {
      size_t pivot;
      if (options.pivot_policy == WcopOptions::PivotPolicy::kFarthestFirst &&
          !chosen.empty()) {
        pivot = active[0];
        double best_score = -1.0;
        for (size_t a : active) {
          double nearest = std::numeric_limits<double>::infinity();
          for (size_t p : chosen) {
            nearest = std::min(nearest, dist(p, a));
          }
          if (nearest > best_score) {
            best_score = nearest;
            pivot = a;
          }
        }
      } else {
        pivot = active[rng.UniformIndex(active.size())];
      }
      chosen.push_back(pivot);

      std::vector<std::pair<double, size_t>> pool;
      for (size_t c = 0; c < n; ++c) {
        if (c != pivot && !clustered[c]) {
          pool.emplace_back(dist(pivot, c), c);
        }
      }
      std::sort(pool.begin(), pool.end());
      *candidate_pairs += pool.size();

      AnonymityCluster cluster;
      cluster.pivot = pivot;
      cluster.members.push_back(pivot);
      cluster.k = d[pivot].requirement().k;
      cluster.delta = d[pivot].requirement().delta;
      size_t next = 0;
      bool grown = true;
      while (static_cast<size_t>(cluster.k) > cluster.members.size()) {
        if (next >= pool.size()) {
          grown = false;
          break;
        }
        const size_t nn = pool[next++].second;
        cluster.members.push_back(nn);
        cluster.k = std::max(cluster.k, d[nn].requirement().k);
        cluster.delta = std::min(cluster.delta, d[nn].requirement().delta);
      }
      double radius = 0.0;
      for (size_t m : cluster.members) {
        radius = std::max(radius, dist(pivot, m));
      }
      if (grown && radius <= radius_max) {
        for (size_t m : cluster.members) {
          clustered[m] = true;
        }
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](size_t i) { return clustered[i]; }),
                     active.end());
        clusters.push_back(std::move(cluster));
      } else {
        active.erase(std::find(active.begin(), active.end(), pivot));
      }
    }

    std::vector<size_t> trash;
    for (size_t idx = 0; idx < n; ++idx) {
      if (clustered[idx]) {
        continue;
      }
      const Requirement& req = d[idx].requirement();
      AnonymityCluster* best = nullptr;
      double best_dist = std::numeric_limits<double>::infinity();
      for (AnonymityCluster& c : clusters) {
        if (c.members.size() + 1 < static_cast<size_t>(req.k) ||
            c.delta > req.delta) {
          continue;
        }
        const double dd = dist(c.pivot, idx);
        if (dd <= radius_max && dd < best_dist) {
          best_dist = dd;
          best = &c;
        }
      }
      if (best != nullptr) {
        best->members.push_back(idx);
        best->k = std::max(best->k, req.k);
      } else {
        trash.push_back(idx);
      }
    }
    if (trash.size() <= trash_max) {
      ClusteringOutcome out;
      out.clusters = std::move(clusters);
      out.trash = std::move(trash);
      out.rounds = round + 1;
      out.final_radius = radius_max;
      return out;
    }
    radius_max *= options.radius_growth;
  }
  return Status::Unsatisfiable("reference: trash_max not met");
}

/// Adversarial corpus: `tiles` groups `tile_spacing` metres apart. Within a
/// group, trajectories are straight lines with 1..max_points points; with
/// probability `dup_p` a trajectory exactly repeats the previous one (exact
/// distance ties), and with probability `mirror_p` it traverses the previous
/// one's extent backwards (identical MBR, different distance).
struct CorpusShape {
  size_t tiles = 3;
  size_t per_tile = 8;
  size_t max_points = 6;
  double tile_spacing = 2.0e5;
  double spread = 5000.0;  ///< start positions within a tile, metres
  double step = 300.0;     ///< max per-axis move per 10 s sample, metres
  double dup_p = 0.25;
  double mirror_p = 0.15;
  int k_max = 4;
  double delta_max = 200.0;
};

Dataset MakeCorpus(const CorpusShape& shape, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  int64_t id = 0;
  for (size_t tile = 0; tile < shape.tiles; ++tile) {
    const double ox = shape.tile_spacing * static_cast<double>(tile);
    Trajectory previous;
    bool have_previous = false;
    for (size_t i = 0; i < shape.per_tile; ++i) {
      const int k = static_cast<int>(rng.UniformInt(2, shape.k_max));
      const double delta = rng.UniformReal(10.0, shape.delta_max);
      Trajectory t;
      if (have_previous && rng.Bernoulli(shape.dup_p)) {
        t = Trajectory(id, previous.points());
      } else if (have_previous && rng.Bernoulli(shape.mirror_p)) {
        std::vector<Point> points = previous.points();
        const size_t m = points.size();
        for (size_t p = 0; p < m / 2; ++p) {
          std::swap(points[p].x, points[m - 1 - p].x);
          std::swap(points[p].y, points[m - 1 - p].y);
        }
        t = Trajectory(id, std::move(points));
      } else {
        const size_t points =
            static_cast<size_t>(rng.UniformInt(1, shape.max_points));
        t = MakeLineWithReq(id, ox + rng.UniformReal(0.0, shape.spread),
                            rng.UniformReal(0.0, shape.spread),
                            rng.UniformReal(-shape.step, shape.step),
                            rng.UniformReal(-shape.step, shape.step), points,
                            k, delta,
                            /*dt=*/10.0,
                            /*t0=*/std::floor(rng.UniformReal(0.0, 60.0)));
      }
      t.set_requirement(Requirement{k, delta});
      previous = t;
      have_previous = true;
      d.Add(std::move(t));
      ++id;
    }
  }
  return d;
}

/// What a sweep exercised, so a test can prove its branches actually fired.
struct Coverage {
  size_t runs = 0;
  size_t unsatisfiable = 0;
  size_t relaxed = 0;          ///< outcomes that needed more than one round
  uint64_t implicit = 0;       ///< distance.candidates.prefiltered
  uint64_t rejected = 0;       ///< cluster.rejected.*
  uint64_t lb_pruned = 0;      ///< distance.lb.*_pruned
};

/// Convoys on one road per tile, all sampled at the same instants, each
/// trajectory `lag` metres behind the previous slot. With delta = 10 m the
/// EDR tolerance is 100 m and 10 s at 10 m/s, so lagged slots never match
/// (distance exactly edr_scale) although their MBRs overlap: explicit
/// candidates that tie with the implicit ones from other tiles, so the
/// merge's (distance, index) tie-break decides the member order. Repeated
/// slots give exact duplicates at distance 0.
Dataset MakeLaggedConvoys(size_t tiles, size_t per_tile, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  int64_t id = 0;
  for (size_t tile = 0; tile < tiles; ++tile) {
    for (size_t i = 0; i < per_tile; ++i) {
      const double slot = static_cast<double>(rng.UniformInt(0, 3));
      const size_t points = static_cast<size_t>(rng.UniformInt(8, 12));
      d.Add(MakeLineWithReq(id++, 2.0e5 * static_cast<double>(tile) -
                                      500.0 * slot,
                            0.0, 100.0, 0.0, points,
                            static_cast<int>(rng.UniformInt(2, 4)),
                            /*delta=*/10.0, /*dt=*/10.0));
    }
  }
  return d;
}

void ExpectSameAsReference(const Dataset& d, size_t trash_max,
                           const WcopOptions& base, const std::string& label,
                           Coverage* coverage = nullptr) {
  uint64_t reference_pairs = 0;
  const Result<ClusteringOutcome> expected =
      ReferenceClustering(d, trash_max, base, &reference_pairs);
  if (coverage != nullptr) {
    ++coverage->runs;
    if (!expected.ok()) {
      ++coverage->unsatisfiable;
    } else if (expected->rounds > 1) {
      ++coverage->relaxed;
    }
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(label + " threads=" + std::to_string(threads));
    WcopOptions options = base;
    options.threads = threads;
    RunContext context;
    options.run_context = &context;
    telemetry::Telemetry tel;
    options.telemetry = &tel;
    const Result<ClusteringOutcome> actual =
        GreedyClustering(d, trash_max, options);
    if (coverage != nullptr && threads == 1) {
      const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
      coverage->implicit +=
          snap.CounterValue("distance.candidates.prefiltered");
      coverage->rejected += snap.CounterValue("cluster.rejected.radius") +
                            snap.CounterValue("cluster.rejected.exhausted");
      coverage->lb_pruned +=
          snap.CounterValue("distance.lb.length_pruned") +
          snap.CounterValue("distance.lb.separation_pruned") +
          snap.CounterValue("distance.lb.envelope_pruned") +
          snap.CounterValue("distance.lb.band_pruned");
    }
    ASSERT_EQ(actual.ok(), expected.ok())
        << (actual.ok() ? expected.status() : actual.status());
    if (!expected.ok()) {
      EXPECT_EQ(actual.status().code(), expected.status().code());
      continue;
    }
    EXPECT_EQ(actual->rounds, expected->rounds);
    EXPECT_EQ(actual->final_radius, expected->final_radius);
    EXPECT_EQ(actual->trash, expected->trash);
    EXPECT_EQ(context.candidate_pairs(), reference_pairs);
    ASSERT_EQ(actual->clusters.size(), expected->clusters.size());
    for (size_t c = 0; c < expected->clusters.size(); ++c) {
      const AnonymityCluster& a = actual->clusters[c];
      const AnonymityCluster& e = expected->clusters[c];
      EXPECT_EQ(a.pivot, e.pivot) << "cluster " << c;
      EXPECT_EQ(a.members, e.members) << "cluster " << c;
      EXPECT_EQ(a.k, e.k) << "cluster " << c;
      EXPECT_EQ(a.delta, e.delta) << "cluster " << c;
    }
  }
}

/// Runs the differential check over seeds, both pivot policies, and three
/// radius settings: the resolved default (radius(D), where the radius test
/// never rejects) plus two tight ones that force rejections and
/// trash-driven radius relaxation.
Coverage SweepAgainstReference(const CorpusShape& shape, size_t trash_max,
                               const std::string& name) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset d = MakeCorpus(shape, 1000 * seed + shape.tiles);
    const WcopOptions resolved = ResolveOptions(d, WcopOptions{});
    for (const auto policy : {WcopOptions::PivotPolicy::kRandom,
                              WcopOptions::PivotPolicy::kFarthestFirst}) {
      for (const double radius_fraction : {1.0, 0.5, 0.05}) {
        WcopOptions options = resolved;
        options.seed = seed * 31 + 7;
        options.pivot_policy = policy;
        options.radius_max = resolved.radius_max * radius_fraction;
        options.max_clustering_rounds = 8;
        ExpectSameAsReference(
            d, trash_max, options,
            name + " seed=" + std::to_string(seed) + " policy=" +
                (policy == WcopOptions::PivotPolicy::kRandom ? "random"
                                                             : "farthest") +
                " radius*" + std::to_string(radius_fraction),
            &coverage);
      }
    }
  }
  return coverage;
}

TEST(GreedyOracleTest, DuplicatesAndIdenticalMbrs) {
  CorpusShape shape;
  shape.tiles = 2;
  shape.per_tile = 14;
  shape.dup_p = 0.5;
  shape.mirror_p = 0.3;
  const Coverage coverage =
      SweepAgainstReference(shape, /*trash_max=*/2, "duplicates");
  // Anti-vacuity: the tight radii drive rejections and radius relaxation.
  EXPECT_GT(coverage.rejected, 0u);
  EXPECT_GT(coverage.relaxed, 0u);
}

TEST(GreedyOracleTest, OnePointTrajectories) {
  CorpusShape shape;
  shape.tiles = 2;
  shape.per_tile = 12;
  shape.max_points = 1;
  const Coverage coverage =
      SweepAgainstReference(shape, /*trash_max=*/2, "one-point");
  EXPECT_GT(coverage.rejected, 0u);
}

TEST(GreedyOracleTest, FarApartTilesAreMostlyImplicit) {
  // Tiny tiles far apart: almost every candidate of a pivot is certified
  // at edr_scale by the grid reach, so the selected prefix is mostly merged
  // from the implicit set in index order.
  CorpusShape shape;
  shape.tiles = 8;
  shape.per_tile = 5;
  shape.k_max = 5;
  const Coverage coverage =
      SweepAgainstReference(shape, /*trash_max=*/3, "far-tiles");
  EXPECT_GT(coverage.implicit, 0u);
  EXPECT_GT(coverage.relaxed, 0u);
}

TEST(GreedyOracleTest, ExplicitCandidatesTieWithImplicitOnes) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset d = MakeLaggedConvoys(/*tiles=*/4, /*per_tile=*/5, seed);
    const WcopOptions resolved = ResolveOptions(d, WcopOptions{});
    for (const auto policy : {WcopOptions::PivotPolicy::kRandom,
                              WcopOptions::PivotPolicy::kFarthestFirst}) {
      WcopOptions options = resolved;
      options.seed = seed;
      options.pivot_policy = policy;
      ExpectSameAsReference(d, /*trash_max=*/2, options,
                            "convoys seed=" + std::to_string(seed),
                            &coverage);
    }
  }
  EXPECT_GT(coverage.implicit, 0u);
}

TEST(GreedyOracleTest, HugeDeltaMakesEverythingReachable) {
  // delta feeds the EDR tolerance (10 * delta_max), so huge deltas dilate
  // every MBR past every tile: no candidate is prefiltered or separated.
  CorpusShape shape;
  shape.tiles = 3;
  shape.per_tile = 7;
  shape.delta_max = 1.0e9;
  const Coverage coverage =
      SweepAgainstReference(shape, /*trash_max=*/2, "huge-delta");
  EXPECT_EQ(coverage.implicit, 0u);
  EXPECT_GT(coverage.rejected, 0u);
}

TEST(GreedyOracleTest, RequirementAboveDatasetSize) {
  CorpusShape shape;
  shape.tiles = 3;
  shape.per_tile = 5;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Dataset d = MakeCorpus(shape, 77 + seed);
    // One trajectory nobody can satisfy: k_i exceeds |D|.
    Trajectory& greedy = d.mutable_trajectories()[seed % d.size()];
    greedy.set_requirement(
        Requirement{static_cast<int>(d.size()) + 1,
                    greedy.requirement().delta});
    const WcopOptions resolved = ResolveOptions(d, WcopOptions{});
    Coverage coverage;
    for (const auto policy : {WcopOptions::PivotPolicy::kRandom,
                              WcopOptions::PivotPolicy::kFarthestFirst}) {
      WcopOptions options = resolved;
      options.seed = seed;
      options.pivot_policy = policy;
      options.max_clustering_rounds = 4;
      const std::string label = "k>|D| seed=" + std::to_string(seed);
      // Unsatisfiable without trash, satisfiable when it may be dropped.
      ExpectSameAsReference(d, /*trash_max=*/0, options, label + " strict",
                            &coverage);
      ExpectSameAsReference(d, /*trash_max=*/3, options, label + " lenient",
                            &coverage);
    }
    EXPECT_EQ(coverage.unsatisfiable, 2u) << "strict runs must fail";
  }
}

TEST(GreedyOracleTest, KGlobalAboveDatasetSizeExhaustsEveryPool) {
  // Every k_i exceeds |D|: each attempt runs out of candidates, so the
  // selected prefix is the whole unclustered set.
  CorpusShape shape;
  shape.tiles = 2;
  shape.per_tile = 3;
  const Dataset base = MakeCorpus(shape, 5);
  Dataset d;
  for (Trajectory t : base.trajectories()) {
    t.set_requirement(Requirement{static_cast<int>(base.size()) + 2,
                                  t.requirement().delta});
    d.Add(std::move(t));
  }
  WcopOptions options = ResolveOptions(d, WcopOptions{});
  options.max_clustering_rounds = 3;
  ExpectSameAsReference(d, /*trash_max=*/0, options, "all k>|D| strict");
  ExpectSameAsReference(d, /*trash_max=*/d.size(), options,
                        "all k>|D| lenient");
}

TEST(GreedyOracleTest, StockSyntheticMatchesReference) {
  // The seeded synthetic workload the clustering unit tests use, at the
  // resolved defaults: the bound cascade must prune on it.
  const Dataset d = SmallSynthetic(40, 50, /*k_max=*/5);
  Coverage coverage;
  for (const auto policy : {WcopOptions::PivotPolicy::kRandom,
                            WcopOptions::PivotPolicy::kFarthestFirst}) {
    WcopOptions options = ResolveOptions(d, WcopOptions{});
    options.pivot_policy = policy;
    ExpectSameAsReference(d, /*trash_max=*/4, options, "stock", &coverage);
  }
  EXPECT_GT(coverage.lb_pruned, 0u);
}

TEST(GreedyOracleTest, TwoDistantBundlesMatchReference) {
  // Two bundles 200 km apart: out-of-reach candidates are priced at
  // edr_scale without a probe, the rest go through the separation rung.
  Dataset d;
  for (int i = 0; i < 6; ++i) {
    d.Add(MakeLineWithReq(i, 0, i * 5.0, 1, 0, 20, /*k=*/3, /*delta=*/100));
    d.Add(MakeLineWithReq(10 + i, 2.0e5, i * 5.0, 1, 0, 20, /*k=*/3,
                          /*delta=*/100));
  }
  Coverage coverage;
  ExpectSameAsReference(d, /*trash_max=*/2, ResolveOptions(d, WcopOptions{}),
                        "bundles", &coverage);
  EXPECT_GT(coverage.implicit, 0u);
}

TEST(GreedyOracleTest, PlainPathMatchesReference) {
  // Synchronized Euclidean (the NWA baseline's distance) and EDR at a zero
  // scale have no certified bounds: GreedyClustering takes the exhaustive
  // scan, which must match the reference as well — including the
  // rejection/relaxation paths under tight radii.
  CorpusShape shape;
  shape.tiles = 2;
  shape.per_tile = 10;
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Dataset d = MakeCorpus(shape, 500 + seed);
    WcopOptions euclidean_base;
    euclidean_base.distance.kind =
        DistanceConfig::Kind::kSynchronizedEuclidean;
    const WcopOptions euclidean = ResolveOptions(d, euclidean_base);
    WcopOptions zero_scale = ResolveOptions(d, WcopOptions{});
    zero_scale.distance.edr_scale = 0.0;
    for (const bool plain_euclidean : {true, false}) {
      const WcopOptions& base = plain_euclidean ? euclidean : zero_scale;
      const std::string kind = plain_euclidean ? "euclidean" : "zero-scale";
      for (const auto policy : {WcopOptions::PivotPolicy::kRandom,
                                WcopOptions::PivotPolicy::kFarthestFirst}) {
        for (const double radius_fraction : {1.0, 0.05}) {
          WcopOptions options = base;
          options.seed = seed;
          options.pivot_policy = policy;
          options.radius_max = base.radius_max * radius_fraction;
          options.max_clustering_rounds = 8;
          ExpectSameAsReference(d, /*trash_max=*/2, options,
                                kind + " seed=" + std::to_string(seed) +
                                    " radius*" +
                                    std::to_string(radius_fraction),
                                &coverage);
        }
      }
    }
  }
  // The plain path never prefilters or prunes; the tight radius rejects.
  EXPECT_EQ(coverage.implicit, 0u);
  EXPECT_EQ(coverage.lb_pruned, 0u);
  EXPECT_GT(coverage.rejected, 0u);
}

}  // namespace
}  // namespace wcop
