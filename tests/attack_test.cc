#include <gtest/gtest.h>

#include "anon/wcop_ct.h"
#include "attack/reident.h"
#include "attack/tracking.h"
#include "test_util.h"

namespace wcop {
namespace attack {
namespace {

using testing_util::SmallSynthetic;

// Re-identification of `original`'s users in `published`, both in memory.
Result<ReidentResult> Link(const Dataset& original, const Dataset& published,
                           const ReidentOptions& options = {}) {
  return RunReidentAttack(DatasetCandidateSource(original),
                          DatasetCandidateSource(published), options);
}

TEST(AttackTest, LinkageAgainstUnprotectedDataSucceeds) {
  // Publishing the original data verbatim: the adversary's observations
  // match the victim's own trajectory exactly, so top-1 linkage is ~100%.
  const Dataset d = SmallSynthetic(30, 50);
  Result<ReidentResult> r = Link(d, d);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->victims_attacked, 30u);
  EXPECT_GE(r->top1_success, 0.95);
  EXPECT_LE(r->mean_true_rank, 1.2);
}

TEST(AttackTest, AnonymizationReducesLinkage) {
  const Dataset d = SmallSynthetic(40, 50, /*k_max=*/5);
  Result<AnonymizationResult> anonymized = RunWcopCt(d);
  ASSERT_TRUE(anonymized.ok());

  Result<ReidentResult> before = Link(d, d);
  Result<ReidentResult> after = Link(d, anonymized->sanitized);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  // The whole point of (k,delta)-anonymity: co-localized cluster members
  // are near-indistinguishable, so linkage confidence drops substantially.
  EXPECT_LT(after->top1_success, before->top1_success);
  EXPECT_GT(after->mean_true_rank, before->mean_true_rank);
  EXPECT_LT(after->mean_reciprocal_rank, 1.0);
}

TEST(AttackTest, NoiseWeakensTheAdversary) {
  const Dataset d = SmallSynthetic(30, 50);
  ReidentOptions clean;
  ReidentOptions noisy;
  noisy.adversary.noise = 2000.0;  // very coarse observations
  Result<ReidentResult> exact = Link(d, d, clean);
  Result<ReidentResult> blurred = Link(d, d, noisy);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(blurred.ok());
  EXPECT_LE(blurred->top1_success, exact->top1_success);
}

TEST(AttackTest, VictimSubsetRespected) {
  const Dataset d = SmallSynthetic(30, 40);
  ReidentOptions options;
  options.num_victims = 10;
  Result<ReidentResult> r = Link(d, d, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->victims_attacked, 10u);
}

TEST(AttackTest, SuppressedVictimsAreSkipped) {
  Dataset original = SmallSynthetic(20, 40);
  Dataset published = original;
  published.mutable_trajectories().pop_back();  // one victim suppressed
  Result<ReidentResult> r = Link(original, published);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->victims_attacked, 19u);
  EXPECT_EQ(r->victims_suppressed, 1u);
}

TEST(AttackTest, DeterministicForSeed) {
  const Dataset d = SmallSynthetic(25, 40);
  ReidentOptions options;
  options.adversary.seed = 1234;
  const auto a = Link(d, d, options);
  const auto b = Link(d, d, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->top1_success, b->top1_success);
  EXPECT_DOUBLE_EQ(a->mean_true_rank, b->mean_true_rank);
}

TEST(AttackTest, UncertaintyAwareAdversaryIsWeaker) {
  // Observations drawn from a wide possible motion curve carry less
  // information than exact fixes.
  const Dataset d = SmallSynthetic(30, 50);
  ReidentOptions exact;
  ReidentOptions uncertain;
  uncertain.adversary.pmc_delta = 4000.0;
  Result<ReidentResult> a = Link(d, d, exact);
  Result<ReidentResult> b = Link(d, d, uncertain);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->top1_success, a->top1_success);
  EXPECT_GE(b->mean_true_rank, a->mean_true_rank);
}

TEST(TrackingAttackTest, FollowsRawDataPerfectly) {
  const Dataset d = SmallSynthetic(20, 50);
  TrackingOptions options;
  options.step_seconds = 30.0;
  Result<TrackingResult> r = RunTrackingAttack(d, d, options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->victims_tracked, 20u);
  // Tracking exact data from the true start should mostly stay on target
  // (companions travelling in the same lane may occasionally steal it).
  EXPECT_GE(r->tracking_success_rate, 0.7);
}

TEST(TrackingAttackTest, CrossingsConfuseTheTracker) {
  // Two co-temporal parallel lanes that get fake crossings: tracking
  // confusion should rise (switches > 0), which is Path Perturbation's
  // design goal. We emulate a crossing directly by swapping the second
  // halves of two lanes.
  Dataset d;
  std::vector<Point> a, b;
  for (int i = 0; i < 60; ++i) {
    a.emplace_back(i * 10.0, 0.0, i * 10.0);
    b.emplace_back(i * 10.0, 40.0, i * 10.0);
  }
  Dataset crossed;
  std::vector<Point> a2(a.begin(), a.begin() + 30);
  std::vector<Point> b2(b.begin(), b.begin() + 30);
  for (int i = 30; i < 60; ++i) {
    a2.push_back(b[static_cast<size_t>(i)]);
    b2.push_back(a[static_cast<size_t>(i)]);
  }
  d.Add(Trajectory(0, a));
  d.Add(Trajectory(1, b));
  crossed.Add(Trajectory(0, a2));
  crossed.Add(Trajectory(1, b2));

  TrackingOptions options;
  options.step_seconds = 10.0;
  Result<TrackingResult> clean = RunTrackingAttack(d, d, options);
  Result<TrackingResult> confused = RunTrackingAttack(d, crossed, options);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(confused.ok());
  EXPECT_DOUBLE_EQ(clean->tracking_success_rate, 1.0);
  // After the swap, following position continuity lands the tracker on the
  // *other* user's id.
  EXPECT_LT(confused->tracking_success_rate, clean->tracking_success_rate);
}

TEST(TrackingAttackTest, RejectsBadInputs) {
  const Dataset d = SmallSynthetic(10, 30);
  TrackingOptions options;
  options.step_seconds = 0.0;
  EXPECT_FALSE(RunTrackingAttack(d, d, options).ok());
  EXPECT_FALSE(RunTrackingAttack(Dataset(), d, {}).ok());
}

TEST(AttackTest, RejectsBadInputs) {
  const Dataset d = SmallSynthetic(10, 30);
  EXPECT_FALSE(Link(Dataset(), d).ok());
  EXPECT_FALSE(Link(d, Dataset()).ok());
  ReidentOptions options;
  options.adversary.observations = 0;
  EXPECT_FALSE(Link(d, d, options).ok());
}

}  // namespace
}  // namespace attack
}  // namespace wcop
