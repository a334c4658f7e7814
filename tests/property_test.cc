// Property-style parameterized sweeps over the (k_max, delta_max, seed)
// grid: the library's hard guarantees must hold at every operating point,
// not just the defaults.

#include <gtest/gtest.h>

#include <tuple>

#include "anon/wcop.h"
#include "attack/reident.h"
#include "related/path_perturbation.h"
#include "related/suppression.h"
#include "segment/convoy.h"
#include "segment/traclus.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::SmallSynthetic;

// ---------------------------------------------------------------------------
// WCOP-CT guarantees across the requirement grid.
// ---------------------------------------------------------------------------

class CtGuarantees
    : public ::testing::TestWithParam<std::tuple<int, double, uint64_t>> {};

TEST_P(CtGuarantees, HoldAtEveryOperatingPoint) {
  const auto [k_max, delta_max, seed] = GetParam();
  const Dataset d = SmallSynthetic(36, 40, k_max, delta_max, seed);
  WcopOptions options;
  options.seed = seed + 1;
  Result<AnonymizationResult> result = RunWcopCt(d, options);
  ASSERT_TRUE(result.ok()) << result.status();

  // 1. Independent anonymity audit.
  const VerificationReport audit = VerifyAnonymity(d, *result);
  EXPECT_TRUE(audit.ok) << (audit.messages.empty() ? "?"
                                                   : audit.messages[0]);
  // 2. Coverage accounting.
  EXPECT_EQ(result->sanitized.size() + result->trashed_ids.size(), d.size());
  // 3. Trash bound (10% default).
  EXPECT_LE(result->report.trashed_trajectories, d.size() / 10);
  // 4. Published trajectories are structurally valid.
  EXPECT_TRUE(result->sanitized.Validate().ok());
  // 5. Report arithmetic.
  EXPECT_GE(result->report.ttd, 0.0);
  EXPECT_DOUBLE_EQ(result->report.total_distortion, result->report.ttd);
}

INSTANTIATE_TEST_SUITE_P(
    RequirementGrid, CtGuarantees,
    ::testing::Combine(::testing::Values(2, 5, 10),
                       ::testing::Values(50.0, 250.0, 1000.0),
                       ::testing::Values(3u, 17u)),
    [](const auto& info) {
      // Built by appending into a named string: the one-expression
      // operator+ chain trips GCC 12's -Wrestrict false positive
      // (PR 105329) depending on inlining.
      std::string name = "k";
      name += std::to_string(std::get<0>(info.param));
      name += "_d";
      name += std::to_string(static_cast<int>(std::get<1>(info.param)));
      name += "_s";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

// ---------------------------------------------------------------------------
// Translation co-localization property across delta values.
// ---------------------------------------------------------------------------

class TranslationProperty : public ::testing::TestWithParam<double> {};

TEST_P(TranslationProperty, MembersAlwaysWithinHalfDelta) {
  const double delta = GetParam();
  const Dataset d = SmallSynthetic(12, 30, /*k_max=*/3, /*delta_max=*/500.0,
                                   5);
  EdrTolerance tol;
  tol.dx = tol.dy = 1000.0;
  tol.dt = 1e6;
  Rng rng(8);
  const Trajectory& pivot = d[0];
  for (size_t i = 1; i < d.size(); ++i) {
    TranslationStats stats;
    const Trajectory out =
        TranslateToPivot(d[i], pivot, delta, tol, &rng, &stats);
    ASSERT_EQ(out.size(), pivot.size());
    for (size_t j = 0; j < out.size(); ++j) {
      EXPECT_LE(SpatialDistance(out[j], pivot[j]), delta / 2.0 + 1e-6)
          << "delta=" << delta << " member=" << i << " point=" << j;
      EXPECT_DOUBLE_EQ(out[j].t, pivot[j].t);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaSweep, TranslationProperty,
                         ::testing::Values(0.0, 1.0, 10.0, 100.0, 1000.0),
                         [](const auto& info) {
                           return "delta" +
                                  std::to_string(static_cast<int>(info.param));
                         });

// ---------------------------------------------------------------------------
// Distance-function sanity across random trajectory pairs.
// ---------------------------------------------------------------------------

class DistanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistanceProperty, MetricLikeInvariants) {
  const uint64_t seed = GetParam();
  const Dataset d = SmallSynthetic(8, 25, 3, 200.0, seed);
  EdrTolerance tol = EdrTolerance::FromDeltaMax(200.0, 6.0);
  for (size_t i = 0; i < d.size(); ++i) {
    // Identity of indiscernibles (one direction).
    EXPECT_DOUBLE_EQ(EdrDistance(d[i], d[i], tol), 0.0);
    for (size_t j = i + 1; j < d.size(); ++j) {
      // Symmetry.
      EXPECT_DOUBLE_EQ(EdrDistance(d[i], d[j], tol),
                       EdrDistance(d[j], d[i], tol));
      // Non-negativity and bounds.
      EXPECT_GE(EdrDistance(d[i], d[j], tol), 0.0);
      const double nedr = NormalizedEdrDistance(d[i], d[j], tol);
      EXPECT_GE(nedr, 0.0);
      EXPECT_LE(nedr, 1.0);
      // Op-sequence replay validity.
      EXPECT_TRUE(IsValidOpSequence(EdrOpSequence(d[i], d[j], tol),
                                    d[i].size(), d[j].size()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Segmentation conservation property across both segmenters and seeds.
// ---------------------------------------------------------------------------

class SegmentationProperty
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(SegmentationProperty, PointConservationAndMetadata) {
  const auto [which, seed] = GetParam();
  const Dataset d = SmallSynthetic(15, 60, 4, 300.0, seed);
  std::unique_ptr<Segmenter> segmenter;
  if (which == "traclus") {
    segmenter = std::make_unique<TraclusSegmenter>();
  } else if (which == "convoy") {
    ConvoyOptions options;
    options.min_objects = 2;
    options.eps = 300.0;
    options.snapshot_interval = 30.0;
    segmenter = std::make_unique<ConvoySegmenter>(options);
  } else {
    segmenter = std::make_unique<FixedLengthSegmenter>(12);
  }
  Result<Dataset> segmented = segmenter->Segment(d);
  ASSERT_TRUE(segmented.ok()) << segmented.status();
  EXPECT_EQ(segmented->TotalPoints(), d.TotalPoints());
  EXPECT_TRUE(segmented->Validate().ok());
  for (const Trajectory& sub : segmented->trajectories()) {
    const Trajectory* parent = d.FindById(sub.parent_id());
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(sub.requirement().k, parent->requirement().k);
    EXPECT_EQ(sub.object_id(), parent->object_id());
    EXPECT_GE(sub.size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SegmentersAndSeeds, SegmentationProperty,
    ::testing::Combine(::testing::Values("traclus", "convoy", "fixed"),
                       ::testing::Values(2u, 9u, 23u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Related-work baseline invariants across seeds.
// ---------------------------------------------------------------------------

class RelatedBaselineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RelatedBaselineProperty, SuppressionNeverInventsPoints) {
  const uint64_t seed = GetParam();
  const Dataset d = SmallSynthetic(25, 40, 4, 300.0, seed);
  SuppressionOptions options;
  options.cell_size = 2000.0;
  options.k = 3;
  Result<SuppressionResult> r = RunSuppression(d, options);
  ASSERT_TRUE(r.ok()) << r.status();
  // Published points are a subset of original points (suppression never
  // moves or creates anything).
  for (const Trajectory& pub : r->sanitized.trajectories()) {
    const Trajectory* orig = d.FindById(pub.id());
    ASSERT_NE(orig, nullptr);
    size_t oi = 0;
    for (const Point& p : pub.points()) {
      while (oi < orig->size() && !((*orig)[oi] == p)) {
        ++oi;
      }
      ASSERT_LT(oi, orig->size())
          << "published point not present in the original";
    }
  }
  // Accounting: published + trashed = input.
  EXPECT_EQ(r->sanitized.size() + r->trashed_ids.size(), d.size());
}

TEST_P(RelatedBaselineProperty, PathPerturbationBoundsDisplacement) {
  const uint64_t seed = GetParam();
  const Dataset d = SmallSynthetic(25, 40, 4, 300.0, seed);
  PathPerturbationOptions options;
  options.radius = 120.0;
  options.seed = seed;
  Result<PathPerturbationResult> r = RunPathPerturbation(d, options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->perturbed.size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    ASSERT_EQ(r->perturbed[i].size(), d[i].size());
    for (size_t j = 0; j < d[i].size(); ++j) {
      EXPECT_LE(SpatialDistance(r->perturbed[i][j], d[i][j]),
                options.radius + 1e-9);
    }
  }
  EXPECT_TRUE(r->perturbed.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelatedBaselineProperty,
                         ::testing::Values(3u, 13u, 31u));

// ---------------------------------------------------------------------------
// Attack-vs-k property: larger k should not make linkage easier.
// ---------------------------------------------------------------------------

class AttackProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AttackProperty, StricterKDoesNotIncreaseLinkage) {
  const uint64_t seed = GetParam();
  attack::ReidentOptions reident;
  reident.adversary.seed = seed + 100;

  auto success_for = [&](int k) {
    Dataset d = SmallSynthetic(36, 40, /*k_max=*/2, /*delta_max=*/300.0,
                               seed);
    for (Trajectory& t : d.mutable_trajectories()) {
      t.set_requirement(Requirement{k, 300.0});
    }
    WcopOptions options;
    options.seed = seed + 1;
    Result<AnonymizationResult> r = RunWcopCt(d, options);
    EXPECT_TRUE(r.ok()) << r.status();
    Result<attack::ReidentResult> a = attack::RunReidentAttack(
        attack::DatasetCandidateSource(d),
        attack::DatasetCandidateSource(r->sanitized), reident);
    EXPECT_TRUE(a.ok());
    return a.ok() ? a->top1_success : 1.0;
  };

  const double at_k2 = success_for(2);
  const double at_k6 = success_for(6);
  // Allow a small tolerance: linkage is stochastic, but the trend must not
  // invert badly.
  EXPECT_LE(at_k6, at_k2 + 0.15) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttackProperty, ::testing::Values(4u, 11u));

}  // namespace
}  // namespace wcop
