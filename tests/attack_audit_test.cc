// The red-team subsystem audits publications; these tests audit the red
// team: the out-of-core store path must agree with the in-memory dataset
// path, the audit JSON must be byte-identical across thread counts, the
// effective-k quantifier must flag a deliberately weakened publication
// (and must not cry wolf on a genuinely collapsed one), and the linkage
// attack must recover hand-built ground truth.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "anon/wcop.h"
#include "attack/audit.h"
#include "attack/candidate_source.h"
#include "attack/effective_k.h"
#include "attack/linkage.h"
#include "attack/reident.h"
#include "store/store_file.h"
#include "test_util.h"

namespace wcop {
namespace attack {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

std::string TempPath(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove_all(path);
  return path;
}

// Writes `dataset` to a fresh store and opens it as a candidate source.
Result<StoreCandidateSource> StoreSourceFor(const Dataset& dataset,
                                            const std::string& name) {
  const std::string path = TempPath(name);
  WCOP_RETURN_IF_ERROR(store::WriteDatasetStore(dataset, path));
  return StoreCandidateSource::Open(path);
}

// ---------------------------------------------------------------------------
// Dataset source and store source must produce identical attack results.
// ---------------------------------------------------------------------------

TEST(ReidentEquivalence, StoreMatchesDatasetExactly) {
  const Dataset original = SmallSynthetic(30, 40, 4, 250.0, 21);
  WcopOptions wcop;
  wcop.seed = 5;
  Result<AnonymizationResult> anonymized = RunWcopCt(original, wcop);
  ASSERT_TRUE(anonymized.ok()) << anonymized.status();

  ReidentOptions options;
  options.adversary.observations = 4;
  options.adversary.noise = 20.0;

  const DatasetCandidateSource mem_original(original);
  const DatasetCandidateSource mem_published(anonymized->sanitized);
  Result<ReidentResult> mem =
      RunReidentAttack(mem_original, mem_published, options);
  ASSERT_TRUE(mem.ok()) << mem.status();

  Result<StoreCandidateSource> disk_original =
      StoreSourceFor(original, "attack_eq_orig.wst");
  ASSERT_TRUE(disk_original.ok()) << disk_original.status();
  Result<StoreCandidateSource> disk_published =
      StoreSourceFor(anonymized->sanitized, "attack_eq_pub.wst");
  ASSERT_TRUE(disk_published.ok()) << disk_published.status();
  Result<ReidentResult> disk =
      RunReidentAttack(*disk_original, *disk_published, options);
  ASSERT_TRUE(disk.ok()) << disk.status();

  EXPECT_EQ(mem->victims_attacked, disk->victims_attacked);
  EXPECT_EQ(mem->victims_suppressed, disk->victims_suppressed);
  EXPECT_DOUBLE_EQ(mem->top1_success, disk->top1_success);
  EXPECT_DOUBLE_EQ(mem->top5_success, disk->top5_success);
  EXPECT_DOUBLE_EQ(mem->mean_true_rank, disk->mean_true_rank);
  EXPECT_DOUBLE_EQ(mem->mean_reciprocal_rank, disk->mean_reciprocal_rank);
  EXPECT_EQ(mem->candidates_total, disk->candidates_total);
  // Pruning counts may differ (the dataset adapter synthesizes the same
  // MBRs, so in fact they should not) — but correctness only requires the
  // *scores* to agree; assert the strong property anyway to pin the
  // adapter's MBR synthesis.
  EXPECT_EQ(mem->candidates_pruned, disk->candidates_pruned);
}

// ---------------------------------------------------------------------------
// Determinism: the audit JSON is byte-identical across thread counts.
// ---------------------------------------------------------------------------

TEST(AuditDeterminism, JsonByteIdenticalAcrossThreadCounts) {
  const Dataset original = SmallSynthetic(36, 40, 4, 250.0, 33);
  WcopOptions wcop;
  wcop.seed = 9;
  Result<AnonymizationResult> anonymized = RunWcopCt(original, wcop);
  ASSERT_TRUE(anonymized.ok()) << anonymized.status();

  const std::string original_path = TempPath("attack_det_orig.wst");
  const std::string published_path = TempPath("attack_det_pub.wst");
  ASSERT_TRUE(store::WriteDatasetStore(original, original_path).ok());
  ASSERT_TRUE(
      store::WriteDatasetStore(anonymized->sanitized, published_path).ok());

  auto run_with = [&](int threads) {
    AuditOptions options;
    options.published_store = published_path;
    options.original_store = original_path;
    options.threads = threads;
    Result<AuditReport> report = RunAudit(options);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? AuditReportToJson(*report) : std::string();
  };
  const std::string serial = run_with(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_with(8));
  // And a victim-capped run is deterministic too (subset selection is a
  // seeded shuffle, not a schedule artifact).
  auto run_capped = [&](int threads) {
    AuditOptions options;
    options.published_store = published_path;
    options.original_store = original_path;
    options.victims = 10;
    options.threads = threads;
    Result<AuditReport> report = RunAudit(options);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? AuditReportToJson(*report) : std::string();
  };
  EXPECT_EQ(run_capped(1), run_capped(8));
}

// ---------------------------------------------------------------------------
// The effective-k property: a deliberately weakened publication (k = 1 in
// effect, whatever was requested) must be flagged — and a genuinely
// collapsed publication must not be.
// ---------------------------------------------------------------------------

// Far-apart users who all requested k = 5 but were published unmodified.
Dataset WeakenedPublication() {
  Dataset d;
  for (int i = 0; i < 12; ++i) {
    Trajectory t = MakeLineWithReq(i, 50000.0 * i, 0.0, 5.0, 3.0, 60,
                                   /*k=*/5, /*delta=*/200.0, /*dt=*/60.0);
    t.set_object_id(i);
    d.Add(std::move(t));
  }
  return d;
}

TEST(EffectiveK, FlagsWeakenedPublication) {
  const Dataset published = WeakenedPublication();
  Result<StoreCandidateSource> source =
      StoreSourceFor(published, "attack_weak.wst");
  ASSERT_TRUE(source.ok()) << source.status();

  EffectiveKOptions options;
  options.adversary.tau_seconds = 600.0;
  options.adversary.epsilon = 250.0;
  Result<EffectiveKResult> result = MeasureEffectiveK(*source, options);
  ASSERT_TRUE(result.ok()) << result.status();

  // Everyone is alone within epsilon: effective k = 1 < requested 5 for
  // every single user. The quantifier must not falsely pass anyone.
  EXPECT_EQ(result->users_measured, published.size());
  EXPECT_DOUBLE_EQ(result->violation_fraction, 1.0);
  EXPECT_DOUBLE_EQ(result->mean_effective_k, 1.0);
  ASSERT_EQ(result->policies.size(), 1u);
  EXPECT_EQ(result->policies[0].k, 5);
  EXPECT_EQ(result->policies[0].violations, published.size());
  EXPECT_DOUBLE_EQ(result->policies[0].p50, 1.0);
}

TEST(EffectiveK, PassesCollapsedKGroups) {
  // Three groups of five co-located trajectories (the shape WCOP-CT's
  // translation step produces): every member's effective k is 5.
  Dataset published;
  int64_t id = 0;
  for (int group = 0; group < 3; ++group) {
    for (int member = 0; member < 5; ++member) {
      Trajectory t = MakeLineWithReq(
          id, 50000.0 * group, 10.0 * member, 5.0, 3.0, 60,
          /*k=*/5, /*delta=*/200.0, /*dt=*/60.0);
      t.set_object_id(id);
      published.Add(std::move(t));
      ++id;
    }
  }
  Result<StoreCandidateSource> source =
      StoreSourceFor(published, "attack_collapsed.wst");
  ASSERT_TRUE(source.ok()) << source.status();

  EffectiveKOptions options;
  options.adversary.tau_seconds = 600.0;
  options.adversary.epsilon = 250.0;
  Result<EffectiveKResult> result = MeasureEffectiveK(*source, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->users_measured, published.size());
  EXPECT_DOUBLE_EQ(result->violation_fraction, 0.0);
  EXPECT_DOUBLE_EQ(result->mean_effective_k, 5.0);
}

// ---------------------------------------------------------------------------
// Linkage attack against hand-built ground truth.
// ---------------------------------------------------------------------------

TEST(Linkage, RecoversHandBuiltContinuations) {
  // Four far-apart users, each cut into a window-0 fragment and its
  // window-1 continuation starting 5 minutes after the fragment ends,
  // displaced by roughly the fragment's own velocity. Fragment ids are
  // fresh per window (as the pipeline assigns them); parent_id carries
  // the ground truth.
  const std::string dir = TempPath("attack_linkage_windows");
  std::filesystem::create_directories(dir);
  const size_t kUsers = 4;
  {
    Result<store::TrajectoryStoreWriter> w0 =
        store::TrajectoryStoreWriter::Create(dir + "/window_00000.wst");
    ASSERT_TRUE(w0.ok()) << w0.status();
    Result<store::TrajectoryStoreWriter> w1 =
        store::TrajectoryStoreWriter::Create(dir + "/window_00001.wst");
    ASSERT_TRUE(w1.ok()) << w1.status();
    for (size_t u = 0; u < kUsers; ++u) {
      const double x0 = 30000.0 * static_cast<double>(u);
      // Window 0: 20 points, 30 s apart, moving at (4, 2) m/s.
      Trajectory head = MakeLineWithReq(
          static_cast<int64_t>(100 + u), x0, 0.0, 120.0, 60.0, 20,
          /*k=*/2, /*delta=*/200.0, /*dt=*/30.0, /*t0=*/0.0);
      head.set_object_id(static_cast<int64_t>(u));
      head.set_parent_id(static_cast<int64_t>(u));
      ASSERT_TRUE(w0->Append(head).ok());
      // Window 1: continues 300 s after the last fix, from where the
      // constant-velocity extrapolation lands.
      const Point& tail = head[head.size() - 1];
      Trajectory cont = MakeLineWithReq(
          static_cast<int64_t>(200 + u), tail.x + 4.0 * 300.0,
          tail.y + 2.0 * 300.0, 120.0, 60.0, 20,
          /*k=*/2, /*delta=*/200.0, /*dt=*/30.0, /*t0=*/tail.t + 300.0);
      cont.set_object_id(static_cast<int64_t>(u));
      cont.set_parent_id(static_cast<int64_t>(u));
      ASSERT_TRUE(w1->Append(cont).ok());
    }
    ASSERT_TRUE(w0->Finish().ok());
    ASSERT_TRUE(w1->Finish().ok());
  }

  Result<std::vector<std::string>> windows = ListWindowStores(dir);
  ASSERT_TRUE(windows.ok()) << windows.status();
  ASSERT_EQ(windows->size(), 2u);

  LinkageOptions options;
  Result<LinkageResult> result = RunLinkageAttack(*windows, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->boundaries, 1u);
  EXPECT_EQ(result->joins_attempted, kUsers);
  EXPECT_EQ(result->joins_correct, kUsers);
  EXPECT_DOUBLE_EQ(result->linkage_rate, 1.0);
  EXPECT_EQ(result->users_tracked, kUsers);
  EXPECT_DOUBLE_EQ(result->trackable_fraction, 1.0);

  // A gate too tight to reach the 300 s gap finds nothing — and reports
  // that honestly rather than joining wrong candidates.
  LinkageOptions tight = options;
  tight.max_gap_seconds = 60.0;
  Result<LinkageResult> none = RunLinkageAttack(*windows, tight);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(none->joins_correct, 0u);
  EXPECT_EQ(none->users_tracked, 0u);
}

TEST(Linkage, EmptyDirectoryIsNotFound) {
  const std::string dir = TempPath("attack_linkage_empty");
  std::filesystem::create_directories(dir);
  Result<std::vector<std::string>> windows = ListWindowStores(dir);
  EXPECT_EQ(windows.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// RunContext: budgets and deadlines trip instead of running forever.
// ---------------------------------------------------------------------------

TEST(AttackRunContext, DistanceBudgetTrips) {
  const Dataset d = SmallSynthetic(24, 30, 3, 200.0, 7);
  const DatasetCandidateSource source(d);
  RunContext context;
  ResourceBudget budget;
  budget.max_distance_computations = 5;
  context.set_budget(budget);
  ReidentOptions options;
  options.run_context = &context;
  Result<ReidentResult> result = RunReidentAttack(source, source, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(AttackRunContext, CancellationStopsTheAudit) {
  const Dataset d = SmallSynthetic(24, 30, 3, 200.0, 7);
  const DatasetCandidateSource source(d);
  RunContext context;
  CancellationToken token;
  context.set_cancellation_token(token);
  token.RequestCancellation();
  ReidentOptions options;
  options.run_context = &context;
  Result<ReidentResult> result = RunReidentAttack(source, source, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Telemetry: the scan's counters reconcile with its result.
// ---------------------------------------------------------------------------

TEST(AttackTelemetry, ReidentCountersMatchTheResult) {
  const Dataset d = SmallSynthetic(24, 30, 3, 200.0, 13);
  const DatasetCandidateSource source(d);
  telemetry::Telemetry telemetry;
  ReidentOptions options;
  options.telemetry = &telemetry;
  Result<ReidentResult> result = RunReidentAttack(source, source, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const telemetry::MetricsSnapshot snapshot =
      telemetry.metrics().Snapshot();
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const auto& [key, value] : snapshot.counters) {
      if (key == name) {
        return value;
      }
    }
    return 0;
  };
  EXPECT_EQ(counter("attack.victims"), 24u);
  EXPECT_EQ(counter("attack.victims"), result->victims_attacked);
  EXPECT_EQ(counter("attack.candidates"), result->candidates_scored);
  EXPECT_EQ(counter("attack.candidates.pruned"), result->candidates_pruned);
  EXPECT_GT(counter("attack.candidates") +
                counter("attack.candidates.pruned"),
            0u);
}

// ---------------------------------------------------------------------------
// Audit plumbing: option validation and JSON shape.
// ---------------------------------------------------------------------------

TEST(Audit, RejectsAmbiguousOrMissingTargets) {
  AuditOptions none;
  EXPECT_EQ(RunAudit(none).status().code(), StatusCode::kInvalidArgument);
  AuditOptions both;
  both.published_store = "a.wst";
  both.windows_dir = "dir";
  EXPECT_EQ(RunAudit(both).status().code(), StatusCode::kInvalidArgument);
}

TEST(Audit, JsonMarksAbsentSectionsAsNull) {
  const Dataset published = WeakenedPublication();
  const std::string path = TempPath("attack_json_null.wst");
  ASSERT_TRUE(store::WriteDatasetStore(published, path).ok());
  AuditOptions options;
  options.published_store = path;  // no original: reident cannot run
  Result<AuditReport> report = RunAudit(options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->has_reident);
  EXPECT_TRUE(report->has_effective_k);
  const std::string json = AuditReportToJson(*report);
  EXPECT_NE(json.find("\"reident\":null"), std::string::npos);
  EXPECT_NE(json.find("\"linkage\":null"), std::string::npos);
  EXPECT_NE(json.find("\"effective_k\":{"), std::string::npos);
}

}  // namespace
}  // namespace attack
}  // namespace wcop
