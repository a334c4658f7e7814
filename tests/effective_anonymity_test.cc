#include <gtest/gtest.h>

#include "anon/effective_anonymity.h"
#include "anon/wcop_ct.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

TEST(EffectiveAnonymityTest, CountsColocalizedBundles) {
  Dataset d;
  // A bundle of three lanes within 4 m, plus a loner far away; every
  // lane audits at its own delta of 100 m.
  d.Add(MakeLineWithReq(0, 0, 0, 10, 0, 20, 3, 100.0));
  d.Add(MakeLineWithReq(1, 0, 2, 10, 0, 20, 3, 100.0));
  d.Add(MakeLineWithReq(2, 0, 4, 10, 0, 20, 3, 100.0));
  d.Add(MakeLineWithReq(3, 0, 9999, 10, 0, 20, 1, 100.0));
  const EffectiveAnonymityReport report = MeasureEffectiveAnonymity(d);
  ASSERT_EQ(report.counts.size(), 4u);
  EXPECT_EQ(report.counts[0], 3u);
  EXPECT_EQ(report.counts[1], 3u);
  EXPECT_EQ(report.counts[2], 3u);
  EXPECT_EQ(report.counts[3], 1u);
  EXPECT_EQ(report.min_anonymity, 1u);
  EXPECT_NEAR(report.mean_anonymity, 2.5, 1e-9);
  // The loner declared k=1, the bundle k=3 and got 3 -> no violations.
  EXPECT_DOUBLE_EQ(report.violation_fraction, 0.0);
}

TEST(EffectiveAnonymityTest, FlagsViolations) {
  Dataset d;
  d.Add(MakeLineWithReq(0, 0, 0, 10, 0, 20, 5, 100.0));  // wants 5, gets 2
  d.Add(MakeLineWithReq(1, 0, 2, 10, 0, 20, 2, 100.0));
  const EffectiveAnonymityReport report = MeasureEffectiveAnonymity(d);
  EXPECT_EQ(report.counts[0], 2u);
  EXPECT_DOUBLE_EQ(report.violation_fraction, 0.5);
}

TEST(EffectiveAnonymityTest, EachUserAuditsAtOwnDelta) {
  Dataset d;
  d.Add(MakeLineWithReq(0, 0, 0, 10, 0, 20, 2, 1.0));   // strict delta
  d.Add(MakeLineWithReq(1, 0, 2, 10, 0, 20, 2, 10.0));  // loose delta
  const EffectiveAnonymityReport report = MeasureEffectiveAnonymity(d);
  // Under its own delta=1, trajectory 0 sees nobody within 1 m; under
  // delta=10, trajectory 1 sees both.
  EXPECT_EQ(report.counts[0], 1u);
  EXPECT_EQ(report.counts[1], 2u);
}

TEST(EffectiveAnonymityTest, WcopOutputHonoursDeclaredK) {
  // The headline guarantee, measured from the outside: every published
  // trajectory's effective anonymity (at its own delta) is >= its k.
  const Dataset d = SmallSynthetic(40, 45, /*k_max=*/4);
  Result<AnonymizationResult> result = RunWcopCt(d);
  ASSERT_TRUE(result.ok());
  const EffectiveAnonymityReport report =
      MeasureEffectiveAnonymity(result->sanitized);
  EXPECT_DOUBLE_EQ(report.violation_fraction, 0.0)
      << "some published trajectory has fewer co-localized companions than "
         "its declared k";
  EXPECT_GE(report.min_anonymity, 2u);
}

TEST(EffectiveAnonymityTest, RawDataLeaks) {
  // The same audit on the *unanonymized* dataset shows violations (random
  // requirements vs. no anonymization).
  const Dataset d = SmallSynthetic(40, 45, /*k_max=*/4);
  const EffectiveAnonymityReport report = MeasureEffectiveAnonymity(d);
  EXPECT_GT(report.violation_fraction, 0.5);
}

TEST(EffectiveAnonymityTest, EmptyDataset) {
  const EffectiveAnonymityReport report = MeasureEffectiveAnonymity(Dataset());
  EXPECT_TRUE(report.counts.empty());
  EXPECT_EQ(report.min_anonymity, 0u);
}

}  // namespace
}  // namespace wcop
