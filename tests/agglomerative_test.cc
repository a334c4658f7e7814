#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "anon/agglomerative.h"
#include "anon/verifier.h"
#include "anon/wcop_ct.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

// ---------------------------------------------------------------------------
// Differential oracle for the agglomerative partner search.
//
// ReferenceAgglomerative is the deficit-driven merge written out the slow,
// obvious way: exact ClusterDistance for every medoid pair it looks at, no
// pair cache, no CheapProbe bounds and no cutoffs. AgglomerativeClustering
// must reproduce it exactly — medoids, member order, k, delta, trash,
// rounds and final radius.
// ---------------------------------------------------------------------------

Result<ClusteringOutcome> ReferenceAgglomerative(const Dataset& d,
                                                 size_t trash_max,
                                                 const WcopOptions& options) {
  const size_t n = d.size();
  auto dist = [&](size_t i, size_t j) {
    return i == j ? 0.0 : ClusterDistance(d[i], d[j], options.distance);
  };
  struct Working {
    std::vector<size_t> members;
    int k = 0;
    double delta = 0.0;
    size_t medoid = 0;
    bool alive = true;
    bool retired = false;
  };
  auto deficit = [](const Working& c) {
    const size_t k = static_cast<size_t>(c.k);
    return c.members.size() >= k ? size_t{0} : k - c.members.size();
  };
  double radius_max = options.radius_max;
  for (size_t round = 0; round < options.max_clustering_rounds; ++round) {
    std::vector<Working> clusters(n);
    for (size_t i = 0; i < n; ++i) {
      clusters[i].members = {i};
      clusters[i].k = d[i].requirement().k;
      clusters[i].delta = d[i].requirement().delta;
      clusters[i].medoid = i;
    }
    while (true) {
      // The live cluster with the largest deficit; the first one wins ties.
      size_t worst = n;
      for (size_t c = 0; c < n; ++c) {
        if (clusters[c].alive && deficit(clusters[c]) > 0 &&
            (worst == n || deficit(clusters[c]) > deficit(clusters[worst]))) {
          worst = c;
        }
      }
      if (worst == n) {
        break;
      }
      // The nearest live medoid within the radius; the first one wins ties.
      size_t partner = n;
      double partner_dist = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < n; ++c) {
        if (c == worst || !clusters[c].alive) {
          continue;
        }
        const double dd = dist(clusters[worst].medoid, clusters[c].medoid);
        if (dd <= radius_max && dd < partner_dist) {
          partner_dist = dd;
          partner = c;
        }
      }
      Working& dst = clusters[worst];
      if (partner == n) {
        dst.alive = false;
        dst.retired = true;
        continue;
      }
      Working& src = clusters[partner];
      dst.members.insert(dst.members.end(), src.members.begin(),
                         src.members.end());
      dst.k = std::max(dst.k, src.k);
      dst.delta = std::min(dst.delta, src.delta);
      // Medoid: the member with the smallest distance sum to all members
      // (the first one wins ties); pairs keep their first member.
      dst.medoid = dst.members.front();
      if (dst.members.size() > 2) {
        double best_sum = std::numeric_limits<double>::infinity();
        for (size_t candidate : dst.members) {
          double sum = 0.0;
          for (size_t other : dst.members) {
            sum += dist(candidate, other);
          }
          if (sum < best_sum) {
            best_sum = sum;
            dst.medoid = candidate;
          }
        }
      }
      src.alive = false;
      src.members.clear();
    }
    ClusteringOutcome out;
    for (const Working& c : clusters) {
      if (c.retired) {
        out.trash.insert(out.trash.end(), c.members.begin(), c.members.end());
      } else if (c.alive) {
        out.clusters.push_back(
            AnonymityCluster{c.medoid, c.members, c.k, c.delta});
      }
    }
    out.rounds = round + 1;
    out.final_radius = radius_max;
    if (out.trash.size() <= trash_max) {
      return out;
    }
    radius_max *= options.radius_growth;
  }
  return Status::Unsatisfiable("reference: trash_max not met");
}

/// What the oracle runs exercised, so a test can prove its branches fired.
struct AgglomerativeCoverage {
  uint64_t lb_pruned = 0;  ///< distance.lb.*_pruned
  uint64_t retired = 0;    ///< cluster.retired
  size_t relaxed = 0;      ///< outcomes that needed more than one round
};

void ExpectMatchesReference(const Dataset& d, size_t trash_max,
                            const WcopOptions& base, const std::string& label,
                            AgglomerativeCoverage* coverage) {
  SCOPED_TRACE(label);
  const Result<ClusteringOutcome> expected =
      ReferenceAgglomerative(d, trash_max, base);
  WcopOptions options = base;
  telemetry::Telemetry tel;
  options.telemetry = &tel;
  const Result<ClusteringOutcome> actual =
      AgglomerativeClustering(d, trash_max, options);
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  coverage->lb_pruned += snap.CounterValue("distance.lb.length_pruned") +
                         snap.CounterValue("distance.lb.separation_pruned") +
                         snap.CounterValue("distance.lb.envelope_pruned") +
                         snap.CounterValue("distance.lb.band_pruned");
  coverage->retired += snap.CounterValue("cluster.retired");
  ASSERT_EQ(actual.ok(), expected.ok())
      << (actual.ok() ? expected.status() : actual.status());
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().code(), expected.status().code());
    return;
  }
  if (expected->rounds > 1) {
    ++coverage->relaxed;
  }
  EXPECT_EQ(actual->rounds, expected->rounds);
  EXPECT_EQ(actual->final_radius, expected->final_radius);
  EXPECT_EQ(actual->trash, expected->trash);
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

/// `tiles` groups of straight lines `spacing` metres apart. With
/// probability `dup_p` a trajectory repeats the previous one exactly, so
/// medoid distances and distance sums tie.
Dataset MakeTiles(size_t tiles, size_t per_tile, double spacing,
                  double dup_p, uint64_t seed) {
  Rng rng(seed);
  Dataset d;
  int64_t id = 0;
  for (size_t tile = 0; tile < tiles; ++tile) {
    std::vector<Point> previous;
    for (size_t i = 0; i < per_tile; ++i) {
      const int k = static_cast<int>(rng.UniformInt(2, 4));
      const double delta = rng.UniformReal(10.0, 200.0);
      Trajectory t;
      if (!previous.empty() && rng.Bernoulli(dup_p)) {
        t = Trajectory(id, previous);
      } else {
        t = MakeLineWithReq(
            id, spacing * static_cast<double>(tile) +
                    rng.UniformReal(0.0, 3000.0),
            rng.UniformReal(0.0, 3000.0), rng.UniformReal(-200.0, 200.0),
            rng.UniformReal(-200.0, 200.0),
            static_cast<size_t>(rng.UniformInt(1, 8)), k, delta,
            /*dt=*/10.0, /*t0=*/std::floor(rng.UniformReal(0.0, 60.0)));
      }
      t.set_requirement(Requirement{k, delta});
      previous = t.points();
      d.Add(std::move(t));
      ++id;
    }
  }
  return d;
}

TEST(AgglomerativeOracleTest, TiesFromDuplicates) {
  AgglomerativeCoverage coverage;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset d = MakeTiles(/*tiles=*/1, /*per_tile=*/16, 0.0,
                                /*dup_p=*/0.5, seed);
    ExpectMatchesReference(d, /*trash_max=*/2,
                           ResolveOptions(d, WcopOptions{}),
                           "ties seed=" + std::to_string(seed), &coverage);
  }
}

TEST(AgglomerativeOracleTest, FarApartTiles) {
  AgglomerativeCoverage coverage;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset d = MakeTiles(/*tiles=*/4, /*per_tile=*/6, 2.0e5,
                                /*dup_p=*/0.2, seed);
    ExpectMatchesReference(d, /*trash_max=*/3,
                           ResolveOptions(d, WcopOptions{}),
                           "tiles seed=" + std::to_string(seed), &coverage);
  }
  // Anti-vacuity: the partner search discards medoids on certified bounds.
  EXPECT_GT(coverage.lb_pruned, 0u);
}

TEST(AgglomerativeOracleTest, TightRadiusRetiresAndRelaxes) {
  AgglomerativeCoverage coverage;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Dataset d = MakeTiles(/*tiles=*/3, /*per_tile=*/6, 2.0e5,
                                /*dup_p=*/0.2, seed);
    const WcopOptions resolved = ResolveOptions(d, WcopOptions{});
    for (const double radius_fraction : {0.5, 0.05}) {
      WcopOptions options = resolved;
      options.radius_max = resolved.radius_max * radius_fraction;
      options.max_clustering_rounds = 8;
      for (const size_t trash_max : {size_t{0}, size_t{4}}) {
        ExpectMatchesReference(
            d, trash_max, options,
            "tight seed=" + std::to_string(seed) + " radius*" +
                std::to_string(radius_fraction) +
                " trash_max=" + std::to_string(trash_max),
            &coverage);
      }
    }
  }
  // Anti-vacuity: clusters with no partner in reach are retired, and the
  // trash they leave forces radius relaxation.
  EXPECT_GT(coverage.retired, 0u);
  EXPECT_GT(coverage.relaxed, 0u);
}

TEST(AgglomerativeOracleTest, SeededSyntheticMatchesReference) {
  const Dataset d = SmallSynthetic(40, 45, /*k_max=*/5);
  AgglomerativeCoverage coverage;
  ExpectMatchesReference(d, /*trash_max=*/4, ResolveOptions(d, WcopOptions{}),
                         "synthetic", &coverage);
  EXPECT_GT(coverage.lb_pruned, 0u);
}

TEST(AgglomerativeOracleTest, PlainPathMatchesReference) {
  // Synchronized Euclidean has no certified bounds: the partner search
  // computes every medoid distance exactly.
  AgglomerativeCoverage coverage;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Dataset d = MakeTiles(/*tiles=*/2, /*per_tile=*/8, 5000.0,
                                /*dup_p=*/0.3, seed);
    WcopOptions base;
    base.distance.kind = DistanceConfig::Kind::kSynchronizedEuclidean;
    ExpectMatchesReference(d, /*trash_max=*/3, ResolveOptions(d, base),
                           "euclidean seed=" + std::to_string(seed),
                           &coverage);
  }
  EXPECT_EQ(coverage.lb_pruned, 0u);
}

TEST(AgglomerativeTest, InvariantsMatchGreedyContract) {
  const Dataset d = SmallSynthetic(40, 45, /*k_max=*/5);
  const WcopOptions options = ResolveOptions(d, WcopOptions{});
  Result<ClusteringOutcome> out = AgglomerativeClustering(d, 4, options);
  ASSERT_TRUE(out.ok()) << out.status();

  std::set<size_t> seen;
  for (const AnonymityCluster& c : out->clusters) {
    EXPECT_NE(std::find(c.members.begin(), c.members.end(), c.pivot),
              c.members.end());
    int max_k = 0;
    double min_delta = 1e18;
    for (size_t m : c.members) {
      EXPECT_TRUE(seen.insert(m).second);
      max_k = std::max(max_k, d[m].requirement().k);
      min_delta = std::min(min_delta, d[m].requirement().delta);
    }
    EXPECT_GE(c.members.size(), static_cast<size_t>(c.k));
    EXPECT_EQ(c.k, max_k);
    EXPECT_DOUBLE_EQ(c.delta, min_delta);
  }
  for (size_t idx : out->trash) {
    EXPECT_TRUE(seen.insert(idx).second);
  }
  EXPECT_EQ(seen.size(), d.size());
  EXPECT_LE(out->trash.size(), 4u);
}

TEST(AgglomerativeTest, EndToEndThroughWcopCtPassesVerifier) {
  const Dataset d = SmallSynthetic(35, 45, /*k_max=*/5);
  WcopOptions options;
  options.clustering_algo = WcopOptions::ClusteringAlgo::kAgglomerative;
  Result<AnonymizationResult> result = RunWcopCt(d, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const VerificationReport report = VerifyAnonymity(d, *result);
  EXPECT_TRUE(report.ok) << (report.messages.empty()
                                 ? "no messages"
                                 : report.messages.front());
}

TEST(AgglomerativeTest, DeterministicNoRandomness) {
  // The agglomerative pass has no random pivot: two runs agree regardless
  // of the seed field.
  const Dataset d = SmallSynthetic(30, 40);
  WcopOptions a = ResolveOptions(d, WcopOptions{});
  WcopOptions b = a;
  a.seed = 1;
  b.seed = 999;
  const auto ra = AgglomerativeClustering(d, 3, a);
  const auto rb = AgglomerativeClustering(d, 3, b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra->clusters.size(), rb->clusters.size());
  for (size_t i = 0; i < ra->clusters.size(); ++i) {
    EXPECT_EQ(ra->clusters[i].members, rb->clusters[i].members);
  }
}

TEST(AgglomerativeTest, UnsatisfiableKFails) {
  Dataset d;
  for (int i = 0; i < 5; ++i) {
    d.Add(MakeLineWithReq(i, i * 10.0, 0, 1, 0, 10, /*k=*/50, /*delta=*/100));
  }
  WcopOptions options = ResolveOptions(d, WcopOptions{});
  options.max_clustering_rounds = 4;
  Result<ClusteringOutcome> out = AgglomerativeClustering(d, 0, options);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnsatisfiable);
}

TEST(AgglomerativeTest, SingletonsSurviveWhenAlreadySatisfied) {
  // Every trajectory demands k=1: no merging needed at all.
  Dataset d;
  for (int i = 0; i < 6; ++i) {
    d.Add(MakeLineWithReq(i, i * 1000.0, 0, 1, 0, 10, /*k=*/1, /*delta=*/50));
  }
  Result<ClusteringOutcome> out =
      AgglomerativeClustering(d, 0, ResolveOptions(d, WcopOptions{}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->clusters.size(), 6u);
  EXPECT_TRUE(out->trash.empty());
}

TEST(AgglomerativeTest, RejectsBadArguments) {
  const Dataset d = SmallSynthetic(10, 30);
  WcopOptions options = ResolveOptions(d, WcopOptions{});
  EXPECT_FALSE(AgglomerativeClustering(Dataset(), 0, options).ok());
  options.radius_max = 0.0;
  EXPECT_FALSE(AgglomerativeClustering(d, 0, options).ok());
}

}  // namespace
}  // namespace wcop
