#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/snapshot.h"
#include "anon/wcop_b.h"
#include "anon/wcop_ct.h"
#include "anon/wcop_sa.h"
#include "data/geolife_parser.h"
#include "geo/projection.h"
#include "segment/convoy.h"
#include "segment/traclus.h"
#include "test_util.h"
#include "traj/io.h"

namespace wcop {
namespace {

using testing_util::SmallSynthetic;

// Every test disarms on teardown so a failed assertion cannot leak an armed
// site into later tests (ScopedFailpoint does the same per-site; this is the
// belt to its suspenders).
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }

  std::string TempPath(const std::string& name) {
    return (std::filesystem::path(::testing::TempDir()) / name).string();
  }
};

// ---------------------------------------------------------------------------
// Registry semantics.
// ---------------------------------------------------------------------------

TEST_F(FailpointTest, DisarmedRegistryIsInert) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  EXPECT_FALSE(registry.any_armed());
  EXPECT_TRUE(registry.Fire("nonexistent.site").ok());
  EXPECT_TRUE(registry.ArmedSites().empty());
}

TEST_F(FailpointTest, ArmFireDisarm) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.Arm("test.site", Status::IoError("injected"));
  EXPECT_TRUE(registry.any_armed());
  ASSERT_EQ(registry.ArmedSites().size(), 1u);
  EXPECT_EQ(registry.ArmedSites().front(), "test.site");

  Status s = registry.Fire("test.site");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_TRUE(registry.Fire("other.site").ok());

  registry.Disarm("test.site");
  EXPECT_FALSE(registry.any_armed());
  EXPECT_TRUE(registry.Fire("test.site").ok());
}

TEST_F(FailpointTest, MaxFiresSelfDisarms) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.Arm("test.limited", Status::Internal("boom"), /*max_fires=*/2);
  EXPECT_FALSE(registry.Fire("test.limited").ok());
  EXPECT_FALSE(registry.Fire("test.limited").ok());
  EXPECT_TRUE(registry.Fire("test.limited").ok());  // exhausted -> disarmed
  EXPECT_FALSE(registry.any_armed());
  EXPECT_GE(registry.HitCount("test.limited"), 2u);
}

TEST_F(FailpointTest, ReArmingOverwrites) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  registry.Arm("test.site", Status::Internal("first"));
  registry.Arm("test.site", Status::IoError("second"));
  EXPECT_EQ(registry.ArmedSites().size(), 1u);
  EXPECT_EQ(registry.Fire("test.site").code(), StatusCode::kIoError);
  registry.Disarm("test.site");
  EXPECT_FALSE(registry.any_armed());
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    ScopedFailpoint fp("test.scoped", Status::Internal("boom"));
    EXPECT_TRUE(FailpointRegistry::Instance().any_armed());
  }
  EXPECT_FALSE(FailpointRegistry::Instance().any_armed());
}

// HitCount with nothing armed: the disarmed fast path skips the registry,
// but EnableHitCounting(true) makes every hit observable anyway — the
// documented fix for the old "counts only while armed" inconsistency.
TEST_F(FailpointTest, HitCountingWorksWithNothingArmed) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  ASSERT_FALSE(registry.any_armed());
  EXPECT_FALSE(registry.active());

  const uint64_t before = registry.HitCount("test.counted");
  auto hit_site = []() -> Status {
    WCOP_FAILPOINT("test.counted");
    return Status::OK();
  };
  // Counting off, nothing armed: the macro's fast path skips Fire().
  EXPECT_TRUE(hit_site().ok());
  EXPECT_EQ(registry.HitCount("test.counted"), before);

  registry.EnableHitCounting(true);
  EXPECT_TRUE(registry.active());
  EXPECT_TRUE(hit_site().ok());
  EXPECT_TRUE(hit_site().ok());
  EXPECT_EQ(registry.HitCount("test.counted"), before + 2);
  registry.EnableHitCounting(false);
  EXPECT_FALSE(registry.active());
}

// ---------------------------------------------------------------------------
// WCOP_FAILPOINTS-style spec parsing (ArmFromSpec).
// ---------------------------------------------------------------------------

TEST_F(FailpointTest, ArmFromSpecArmsPlainSites) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromSpec("test.one,test.two").ok());
  EXPECT_EQ(registry.ArmedSites().size(), 2u);
  EXPECT_EQ(registry.Fire("test.one").code(), StatusCode::kInternal);
  EXPECT_EQ(registry.Fire("test.two").code(), StatusCode::kInternal);
}

TEST_F(FailpointTest, ArmFromSpecTrimsWhitespaceAndSkipsEmptySegments) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromSpec("  test.one , \ttest.two\n,, ,").ok());
  EXPECT_EQ(registry.ArmedSites().size(), 2u);
  EXPECT_FALSE(registry.Fire("test.one").ok());
  EXPECT_FALSE(registry.Fire("test.two").ok());
  // An all-whitespace spec arms nothing and is not an error.
  registry.DisarmAll();
  ASSERT_TRUE(registry.ArmFromSpec("   ").ok());
  EXPECT_FALSE(registry.any_armed());
}

TEST_F(FailpointTest, ArmFromSpecRejectsMalformedSegments) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  EXPECT_EQ(registry.ArmFromSpec("test.site:explode").code(),
            StatusCode::kInvalidArgument);
  registry.DisarmAll();
  EXPECT_EQ(registry.ArmFromSpec("test.site:abort@0").code(),
            StatusCode::kInvalidArgument);
  registry.DisarmAll();
  EXPECT_EQ(registry.ArmFromSpec("test.site:abort@notanumber").code(),
            StatusCode::kInvalidArgument);
  registry.DisarmAll();
  EXPECT_EQ(registry.ArmFromSpec(":abort").code(),
            StatusCode::kInvalidArgument);
  registry.DisarmAll();
  // Well-formed segments before the malformed one are still armed.
  EXPECT_FALSE(registry.ArmFromSpec("test.good,test.bad:explode").ok());
  EXPECT_EQ(registry.ArmedSites().size(), 1u);
  EXPECT_EQ(registry.ArmedSites().front(), "test.good");
}

// abort-mode countdown semantics are observable without dying: earlier hits
// of site:abort@N pass through OK (the abort itself is exercised by the
// fork/exec crash-recovery harness, where the child is expendable).
TEST_F(FailpointTest, AbortModeCountsDownWithoutInjectingStatus) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromSpec("test.boom:abort@3").ok());
  EXPECT_TRUE(registry.any_armed());
  EXPECT_TRUE(registry.Fire("test.boom").ok());  // hit 1 of 3: no abort yet
  EXPECT_TRUE(registry.Fire("test.boom").ok());  // hit 2 of 3
  registry.Disarm("test.boom");                  // defuse before hit 3
  EXPECT_TRUE(registry.Fire("test.boom").ok());
}

// ---------------------------------------------------------------------------
// errno-injection mode: site:errno=ENOSPC[@N] lets the first N-1 hits
// through, injects exactly one IoError naming the errno, then disarms —
// modelling a full disk striking one specific write in a publish sequence.
// ---------------------------------------------------------------------------

TEST_F(FailpointTest, ErrnoModeInjectsIoErrorOnce) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromSpec("test.publish:errno=ENOSPC").ok());
  Status s = registry.Fire("test.publish");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("ENOSPC"), std::string::npos) << s;
  // One-shot: the "disk" has space again, and the site is disarmed.
  EXPECT_TRUE(registry.Fire("test.publish").ok());
  EXPECT_FALSE(registry.any_armed());
}

TEST_F(FailpointTest, ErrnoModeAtNSkipsEarlierHits) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromSpec("test.write:errno=EIO@3").ok());
  EXPECT_TRUE(registry.Fire("test.write").ok());  // hit 1
  EXPECT_TRUE(registry.Fire("test.write").ok());  // hit 2
  Status s = registry.Fire("test.write");         // hit 3: injected
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("EIO"), std::string::npos) << s;
  EXPECT_TRUE(registry.Fire("test.write").ok());
  EXPECT_FALSE(registry.any_armed());
}

TEST_F(FailpointTest, ErrnoModeRejectsUnknownErrnoName) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  Status s = registry.ArmFromSpec("test.write:errno=EWHATEVER");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("EWHATEVER"), std::string::npos) << s;
  EXPECT_FALSE(registry.any_armed());
}

// The errno mode composes with the existing write-site instrumentation: an
// injected ENOSPC on snapshot.write surfaces as the snapshot writer's
// IoError, exactly like a real short write.
TEST_F(FailpointTest, ErrnoModeFiresThroughSnapshotWriteSite) {
  FailpointRegistry& registry = FailpointRegistry::Instance();
  ASSERT_TRUE(registry.ArmFromSpec("snapshot.write:errno=ENOSPC").ok());
  const std::string path = TempPath("failpoint_errno_snapshot.snap");
  Status s = WriteSnapshotFile(path, "payload bytes", /*format_version=*/1);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("ENOSPC"), std::string::npos) << s;
  // The failed publish leaves no committed artifact behind.
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove(path + ".tmp");
}

// ---------------------------------------------------------------------------
// Fault injection through every instrumented pipeline boundary. Each test
// arms exactly one production site and asserts the enclosing driver returns
// the injected Status cleanly (no crash, no partial mutation escaping as a
// published result).
// ---------------------------------------------------------------------------

TEST_F(FailpointTest, InjectCsvReadLine) {
  const Dataset d = SmallSynthetic(5, 10);
  const std::string path = TempPath("failpoint_csv_test.csv");
  ASSERT_TRUE(WriteDatasetCsv(d, path).ok());

  ScopedFailpoint fp("csv.read_line", Status::IoError("injected read error"));
  Result<Dataset> result = ReadDatasetCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError) << result.status();
  std::filesystem::remove(path);
}

// The retry-wrapped parser rides over transient injected I/O failures and
// returns the parsed dataset; a parse error is terminal on the first try.
TEST_F(FailpointTest, CsvRetryRecoversFromTransientIo) {
  const Dataset d = SmallSynthetic(5, 10);
  const std::string path = TempPath("failpoint_csv_retry_test.csv");
  ASSERT_TRUE(WriteDatasetCsv(d, path).ok());

  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.sleep_between_attempts = false;
  {
    ScopedFailpoint fp("csv.read_line", Status::IoError("transient"),
                       /*max_fires=*/2);
    Result<Dataset> result = ReadDatasetCsvRetry(path, retry);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->size(), d.size());
  }
  {
    ScopedFailpoint fp("csv.read_line", Status::ParseError("bad cell"),
                       /*max_fires=*/2);
    Result<Dataset> result = ReadDatasetCsvRetry(path, retry);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kParseError);
    // Non-retryable: the second injected fire was never consumed.
    EXPECT_FALSE(ReadDatasetCsv(path).ok());
  }
  std::filesystem::remove(path);
}

TEST_F(FailpointTest, InjectGeoLifeReadLine) {
  const Dataset d = SmallSynthetic(2, 20);
  const LocalProjection projection(39.9057, 116.3913);
  const std::string path = TempPath("failpoint_geolife_test.plt");
  ASSERT_TRUE(
      WritePltFile(*d.FindById(d.trajectories().front().id()), projection, path)
          .ok());

  ScopedFailpoint fp("geolife.read_line", Status::IoError("injected"));
  Result<Trajectory> result = ParsePltFile(path, projection);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError) << result.status();
  std::filesystem::remove(path);
}

TEST_F(FailpointTest, InjectGeoLifeOpenFile) {
  const Dataset d = SmallSynthetic(3, 20);
  const LocalProjection projection(39.9057, 116.3913);
  const std::string root = TempPath("failpoint_geolife_dir");
  ASSERT_TRUE(WriteGeoLifeDirectory(d, projection, root).ok());

  ScopedFailpoint fp("geolife.open_file", Status::IoError("injected"));
  Result<Dataset> result = LoadGeoLifeDirectory(root);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError) << result.status();
  std::filesystem::remove_all(root);
}

TEST_F(FailpointTest, InjectGreedyClusteringRound) {
  const Dataset d = SmallSynthetic(20, 20);
  ScopedFailpoint fp("cluster.greedy_round",
                     Status::ResourceExhausted("injected"));
  Result<AnonymizationResult> result = RunWcopCt(d);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
}

TEST_F(FailpointTest, InjectAgglomerativeRound) {
  const Dataset d = SmallSynthetic(20, 20);
  WcopOptions options;
  options.clustering_algo = WcopOptions::ClusteringAlgo::kAgglomerative;
  ScopedFailpoint fp("cluster.agglomerative_round",
                     Status::Internal("injected"));
  Result<AnonymizationResult> result = RunWcopCt(d, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal) << result.status();
}

TEST_F(FailpointTest, InjectClusterTranslation) {
  const Dataset d = SmallSynthetic(20, 20);
  ScopedFailpoint fp("anon.translate_cluster", Status::Internal("injected"));
  Result<AnonymizationResult> result = RunWcopCt(d);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal) << result.status();
}

TEST_F(FailpointTest, InjectTraclusSegmentation) {
  const Dataset d = SmallSynthetic(15, 30);
  TraclusSegmenter segmenter;
  ScopedFailpoint fp("segment.traclus", Status::Internal("injected"));
  Result<WcopSaResult> result = RunWcopSa(d, &segmenter);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal) << result.status();
}

TEST_F(FailpointTest, InjectConvoySnapshot) {
  const Dataset d = SmallSynthetic(15, 30);
  ConvoyOptions options;
  options.snapshot_interval = 30.0;
  ScopedFailpoint fp("segment.convoy_snapshot", Status::Internal("injected"));
  Result<std::vector<Convoy>> result = DiscoverConvoys(d, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal) << result.status();
}

TEST_F(FailpointTest, InjectWcopBRound) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopBOptions b_options;
  b_options.max_edit_size = 3;
  ScopedFailpoint fp("wcop_b.round", Status::Internal("injected"));
  Result<WcopBResult> result = RunWcopB(d, {}, b_options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal) << result.status();
}

// A max_fires=1 injection on a per-round site lets the retry-free pipeline
// fail once and the next, un-injected run succeed — proving no state leaks
// across runs through the registry.
TEST_F(FailpointTest, PipelineRecoversAfterInjection) {
  const Dataset d = SmallSynthetic(20, 20);
  {
    ScopedFailpoint fp("cluster.greedy_round", Status::Internal("transient"),
                       /*max_fires=*/1);
    EXPECT_FALSE(RunWcopCt(d).ok());
  }
  Result<AnonymizationResult> retry = RunWcopCt(d);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_FALSE(retry->report.degraded);
}

}  // namespace
}  // namespace wcop
