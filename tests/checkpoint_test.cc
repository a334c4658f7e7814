#include "anon/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "anon/streaming.h"
#include "anon/wcop_b.h"
#include "common/failpoint.h"
#include "common/number_codec.h"
#include "common/snapshot.h"
#include "pipeline/manifest.h"
#include "server/job.h"
#include "store/shard_runner.h"
#include "store/store_file.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

// Compact deterministic dataset: three groups of three co-travelling lines,
// all inside [0, 290] s, so a 100 s window yields exactly three windows and
// every fragment is clusterable under k=2, delta=300.
Dataset CompactDataset() {
  std::vector<Trajectory> trajectories;
  int64_t id = 0;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 3; ++i) {
      Trajectory t = MakeLineWithReq(id, 2000.0 * g, 30.0 * i, 5.0, 0.0,
                                     /*n=*/30, /*k=*/2, /*delta=*/300.0,
                                     /*dt=*/10.0);
      t.set_object_id(id);
      trajectories.push_back(std::move(t));
      ++id;
    }
  }
  return Dataset(std::move(trajectories));
}

void ExpectTrajectoriesIdentical(const Trajectory& a, const Trajectory& b) {
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.object_id(), b.object_id());
  EXPECT_EQ(a.parent_id(), b.parent_id());
  EXPECT_EQ(a.requirement().k, b.requirement().k);
  EXPECT_EQ(a.requirement().delta, b.requirement().delta);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise double equality: resume must be exact, not approximate.
    EXPECT_EQ(a.points()[i].x, b.points()[i].x) << i;
    EXPECT_EQ(a.points()[i].y, b.points()[i].y) << i;
    EXPECT_EQ(a.points()[i].t, b.points()[i].t) << i;
  }
}

void ExpectDatasetsIdentical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectTrajectoriesIdentical(a[i], b[i]);
  }
}

uint64_t CounterValue(const telemetry::MetricsSnapshot& metrics,
                      const std::string& name) {
  for (const auto& [counter_name, value] : metrics.counters) {
    if (counter_name == name) {
      return value;
    }
  }
  return 0;
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("checkpoint_test_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Codec round-trips.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, StreamingCheckpointRoundTrips) {
  StreamingCheckpoint original;
  original.fingerprint = 0xdeadbeefcafef00dULL;
  original.windows_done = 7;
  original.next_fragment_id = 42;
  original.suppressed_fragments = 3;
  original.total_clusters = 11;
  original.total_ttd = 0.1 + 0.2;  // not exactly 0.3 — must survive verbatim
  original.degraded = true;
  original.degraded_reason = "deadline exceeded: newline \n and spaces ok";
  StreamingWindowSummary w;
  w.window_start = 1.0 / 3.0;
  w.input_fragments = 5;
  w.published_fragments = 4;
  w.clusters = 2;
  w.ttd = 123.456789012345678;
  w.skipped = false;
  original.windows.push_back(w);
  w.skipped = true;
  original.windows.push_back(w);
  Trajectory t = MakeLineWithReq(9, 0.125, -3.5, 0.1, 0.2, 4, 3, 250.0);
  t.set_object_id(2);
  t.set_parent_id(77);
  original.published.push_back(t);
  original.counters = {{"streaming.windows", 7}, {"odd name with spaces", 1}};

  Result<StreamingCheckpoint> decoded =
      DecodeStreamingCheckpoint(EncodeStreamingCheckpoint(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->fingerprint, original.fingerprint);
  EXPECT_EQ(decoded->windows_done, original.windows_done);
  EXPECT_EQ(decoded->next_fragment_id, original.next_fragment_id);
  EXPECT_EQ(decoded->suppressed_fragments, original.suppressed_fragments);
  EXPECT_EQ(decoded->total_clusters, original.total_clusters);
  EXPECT_EQ(decoded->total_ttd, original.total_ttd);
  EXPECT_EQ(decoded->degraded, original.degraded);
  EXPECT_EQ(decoded->degraded_reason, original.degraded_reason);
  ASSERT_EQ(decoded->windows.size(), 2u);
  EXPECT_EQ(decoded->windows[0].window_start, original.windows[0].window_start);
  EXPECT_EQ(decoded->windows[0].ttd, original.windows[0].ttd);
  EXPECT_FALSE(decoded->windows[0].skipped);
  EXPECT_TRUE(decoded->windows[1].skipped);
  ASSERT_EQ(decoded->published.size(), 1u);
  ExpectTrajectoriesIdentical(decoded->published[0], t);
  EXPECT_EQ(decoded->counters, original.counters);
}

TEST_F(CheckpointTest, WcopBCheckpointRoundTrips) {
  WcopBCheckpoint original;
  original.fingerprint = 123456789;
  original.next_edit_size = 6;
  original.terminal = true;
  original.bound_satisfied = false;
  original.final_edit_size = 5;
  WcopBRound round;
  round.edit_size = 5;
  round.ttd = 17.25;
  round.editing_distortion = 0.7;
  round.total_distortion = 17.95;
  round.num_clusters = 4;
  round.trashed = 1;
  original.rounds.push_back(round);
  Trajectory t = MakeLineWithReq(3, 1.0, 2.0, 0.5, -0.25, 3, 2, 100.0);
  original.anonymization.sanitized = Dataset({t});
  original.anonymization.trashed_ids = {8, -1};
  AnonymityCluster cluster;
  cluster.pivot = 0;
  cluster.k = 2;
  cluster.delta = 100.0;
  cluster.members = {0, 1, 2};
  original.anonymization.clusters.push_back(cluster);
  original.anonymization.report.ttd = 17.25;
  original.anonymization.report.omega = 3.5;
  original.anonymization.report.degraded = true;
  original.anonymization.report.degraded_reason = "budget";
  original.counters = {{"wcop_b.rounds", 5}};

  Result<WcopBCheckpoint> decoded =
      DecodeWcopBCheckpoint(EncodeWcopBCheckpoint(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->fingerprint, original.fingerprint);
  EXPECT_EQ(decoded->next_edit_size, original.next_edit_size);
  EXPECT_EQ(decoded->terminal, original.terminal);
  EXPECT_EQ(decoded->bound_satisfied, original.bound_satisfied);
  EXPECT_EQ(decoded->final_edit_size, original.final_edit_size);
  ASSERT_EQ(decoded->rounds.size(), 1u);
  EXPECT_EQ(decoded->rounds[0].edit_size, round.edit_size);
  EXPECT_EQ(decoded->rounds[0].ttd, round.ttd);
  EXPECT_EQ(decoded->rounds[0].total_distortion, round.total_distortion);
  ExpectDatasetsIdentical(decoded->anonymization.sanitized,
                          original.anonymization.sanitized);
  EXPECT_EQ(decoded->anonymization.trashed_ids,
            original.anonymization.trashed_ids);
  ASSERT_EQ(decoded->anonymization.clusters.size(), 1u);
  EXPECT_EQ(decoded->anonymization.clusters[0].members, cluster.members);
  EXPECT_EQ(decoded->anonymization.report.ttd, 17.25);
  EXPECT_EQ(decoded->anonymization.report.degraded_reason, "budget");
  EXPECT_EQ(decoded->counters, original.counters);
}

TEST_F(CheckpointTest, DecodeRejectsGarbageAsDataLoss) {
  Result<StreamingCheckpoint> streaming =
      DecodeStreamingCheckpoint("not a checkpoint at all");
  ASSERT_FALSE(streaming.ok());
  EXPECT_EQ(streaming.status().code(), StatusCode::kDataLoss);

  Result<WcopBCheckpoint> wcop_b = DecodeWcopBCheckpoint("");
  ASSERT_FALSE(wcop_b.ok());
  EXPECT_EQ(wcop_b.status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointTest, DecodeRejectsTruncationAsDataLoss) {
  StreamingCheckpoint checkpoint;
  checkpoint.windows.push_back(StreamingWindowSummary{});
  checkpoint.counters = {{"a", 1}};
  const std::string payload = EncodeStreamingCheckpoint(checkpoint);
  for (size_t cut : {payload.size() - 1, payload.size() / 2, size_t{5}}) {
    Result<StreamingCheckpoint> decoded =
        DecodeStreamingCheckpoint(payload.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST_F(CheckpointTest, DecodeRejectsUnknownVersionAsFailedPrecondition) {
  Result<StreamingCheckpoint> streaming =
      DecodeStreamingCheckpoint("wcop-streaming-checkpoint 999\n");
  ASSERT_FALSE(streaming.ok());
  EXPECT_EQ(streaming.status().code(), StatusCode::kFailedPrecondition);

  Result<WcopBCheckpoint> wcop_b =
      DecodeWcopBCheckpoint("wcop-b-checkpoint 999\n");
  ASSERT_FALSE(wcop_b.ok());
  EXPECT_EQ(wcop_b.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Fingerprints: any change to the data or the options that shape the run
// must change the fingerprint, so stale checkpoints are rejected.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, FingerprintsAreSensitive) {
  const Dataset d = CompactDataset();
  Dataset moved = d;
  moved[0].mutable_points()[0].x += 1e-9;

  EXPECT_NE(DatasetFingerprint(d), DatasetFingerprint(moved));

  StreamingOptions streaming;
  StreamingOptions wider = streaming;
  wider.window_seconds *= 2.0;
  EXPECT_EQ(StreamingConfigFingerprint(d, streaming),
            StreamingConfigFingerprint(d, streaming));
  EXPECT_NE(StreamingConfigFingerprint(d, streaming),
            StreamingConfigFingerprint(d, wider));
  EXPECT_NE(StreamingConfigFingerprint(d, streaming),
            StreamingConfigFingerprint(moved, streaming));

  WcopOptions wcop;
  WcopBOptions b;
  WcopBOptions bigger_step = b;
  bigger_step.step = b.step + 1;
  EXPECT_EQ(WcopBConfigFingerprint(d, wcop, b),
            WcopBConfigFingerprint(d, wcop, b));
  EXPECT_NE(WcopBConfigFingerprint(d, wcop, b),
            WcopBConfigFingerprint(d, wcop, bigger_step));
  // Streaming and WCOP-B fingerprints live in different domains.
  EXPECT_NE(StreamingConfigFingerprint(d, streaming),
            WcopBConfigFingerprint(d, wcop, b));
}

// ---------------------------------------------------------------------------
// Streaming interrupt/resume: a run killed right after its first checkpoint
// resumes to output identical to an uninterrupted run.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, StreamingResumeMatchesUninterruptedRun) {
  const Dataset d = CompactDataset();
  StreamingOptions options;
  options.window_seconds = 100.0;

  Result<StreamingResult> baseline = RunStreamingWcop(d, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GT(baseline->windows.size(), 1u);

  options.checkpoint_path = Path("stream.ckpt");
  {
    // Fail the run right after the first checkpoint lands on disk — the
    // in-process analogue of a crash between windows.
    ScopedFailpoint fp("streaming.checkpoint_saved",
                       Status::Internal("simulated crash"), /*max_fires=*/1);
    Result<StreamingResult> interrupted = RunStreamingWcop(d, options);
    ASSERT_FALSE(interrupted.ok());
    EXPECT_EQ(interrupted.status().code(), StatusCode::kInternal);
  }
  ASSERT_TRUE(std::filesystem::exists(options.checkpoint_path));

  Result<StreamingResult> resumed = RunStreamingWcop(d, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->resumed_windows, 1u);
  ExpectDatasetsIdentical(resumed->sanitized, baseline->sanitized);
  ASSERT_EQ(resumed->windows.size(), baseline->windows.size());
  for (size_t i = 0; i < baseline->windows.size(); ++i) {
    EXPECT_EQ(resumed->windows[i].window_start,
              baseline->windows[i].window_start) << i;
    EXPECT_EQ(resumed->windows[i].published_fragments,
              baseline->windows[i].published_fragments) << i;
    EXPECT_EQ(resumed->windows[i].ttd, baseline->windows[i].ttd) << i;
  }
  EXPECT_EQ(resumed->total_clusters, baseline->total_clusters);
  EXPECT_EQ(resumed->total_ttd, baseline->total_ttd);
  EXPECT_EQ(resumed->suppressed_fragments, baseline->suppressed_fragments);
  EXPECT_FALSE(resumed->degraded);
}

TEST_F(CheckpointTest, StreamingRerunFromCompleteCheckpointSplicesEverything) {
  const Dataset d = CompactDataset();
  StreamingOptions options;
  options.window_seconds = 100.0;
  options.checkpoint_path = Path("stream.ckpt");

  Result<StreamingResult> first = RunStreamingWcop(d, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->resumed);

  Result<StreamingResult> rerun = RunStreamingWcop(d, options);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_TRUE(rerun->resumed);
  EXPECT_EQ(rerun->resumed_windows, first->windows.size());
  ExpectDatasetsIdentical(rerun->sanitized, first->sanitized);
  EXPECT_EQ(rerun->total_ttd, first->total_ttd);
}

TEST_F(CheckpointTest, StreamingRejectsForeignCheckpoint) {
  const Dataset d = CompactDataset();
  StreamingOptions options;
  options.window_seconds = 100.0;
  options.checkpoint_path = Path("stream.ckpt");
  ASSERT_TRUE(RunStreamingWcop(d, options).ok());

  // Same checkpoint, different window partition: refuse, loudly.
  StreamingOptions different = options;
  different.window_seconds = 50.0;
  Result<StreamingResult> r = RunStreamingWcop(d, different);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << r.status();

  // Different dataset, same options: also refused.
  Result<StreamingResult> r2 = RunStreamingWcop(SmallSynthetic(10, 30),
                                                options);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, StreamingDiscardsCorruptCheckpointPayload) {
  const Dataset d = CompactDataset();
  StreamingOptions options;
  options.window_seconds = 100.0;
  options.checkpoint_path = Path("stream.ckpt");

  Result<StreamingResult> baseline = RunStreamingWcop(d, options);
  ASSERT_TRUE(baseline.ok());
  std::filesystem::remove(options.checkpoint_path);
  std::filesystem::remove(options.checkpoint_path + ".prev");

  // Valid snapshot envelopes whose payloads are not checkpoints (both depth
  // levels, so the fallback cannot save us): the driver must recompute from
  // scratch instead of trusting them.
  ASSERT_TRUE(WriteSnapshotRotating(options.checkpoint_path, "garbage",
                                    kStreamingCheckpointVersion).ok());
  ASSERT_TRUE(WriteSnapshotRotating(options.checkpoint_path, "more garbage",
                                    kStreamingCheckpointVersion).ok());

  Result<StreamingResult> fresh = RunStreamingWcop(d, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_FALSE(fresh->resumed);
  ExpectDatasetsIdentical(fresh->sanitized, baseline->sanitized);
}

TEST_F(CheckpointTest, StreamingResumeSplicesTelemetryCounters) {
  const Dataset d = CompactDataset();
  StreamingOptions options;
  options.window_seconds = 100.0;

  telemetry::Telemetry baseline_tel;
  options.wcop.telemetry = &baseline_tel;
  Result<StreamingResult> baseline = RunStreamingWcop(d, options);
  ASSERT_TRUE(baseline.ok());
  const uint64_t baseline_windows =
      CounterValue(baseline->metrics, "streaming.windows");
  ASSERT_GT(baseline_windows, 1u);

  options.checkpoint_path = Path("stream.ckpt");
  telemetry::Telemetry crashed_tel;
  options.wcop.telemetry = &crashed_tel;
  {
    ScopedFailpoint fp("streaming.checkpoint_saved",
                       Status::Internal("simulated crash"), /*max_fires=*/1);
    ASSERT_FALSE(RunStreamingWcop(d, options).ok());
  }

  // The resumed process gets a fresh sink (as a real restart would); the
  // spliced counters must cover the whole logical stream, not this process.
  telemetry::Telemetry resumed_tel;
  options.wcop.telemetry = &resumed_tel;
  Result<StreamingResult> resumed = RunStreamingWcop(d, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(CounterValue(resumed->metrics, "streaming.windows"),
            baseline_windows);
  EXPECT_EQ(CounterValue(resumed->metrics, "checkpoint.resumes"), 1u);
}

// A stream-level context trip is process-local: the checkpoint written on
// the way out must NOT be marked degraded, so the restarted run (fresh
// context) finishes clean and identical to an uninterrupted one.
TEST_F(CheckpointTest, StreamingDegradedTripIsNotPersisted) {
  const Dataset d = CompactDataset();
  StreamingOptions options;
  options.window_seconds = 100.0;

  Result<StreamingResult> baseline = RunStreamingWcop(d, options);
  ASSERT_TRUE(baseline.ok());

  options.checkpoint_path = Path("stream.ckpt");
  options.wcop.allow_partial_results = true;
  CancellationToken token;
  token.RequestCancellation();
  RunContext cancelled;
  cancelled.set_cancellation_token(token);
  options.wcop.run_context = &cancelled;

  Result<StreamingResult> tripped = RunStreamingWcop(d, options);
  ASSERT_TRUE(tripped.ok()) << tripped.status();
  EXPECT_TRUE(tripped->degraded);

  options.wcop.run_context = nullptr;
  Result<StreamingResult> resumed = RunStreamingWcop(d, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_FALSE(resumed->degraded) << resumed->degraded_reason;
  ExpectDatasetsIdentical(resumed->sanitized, baseline->sanitized);
}

// ---------------------------------------------------------------------------
// WCOP-B interrupt/resume.
// ---------------------------------------------------------------------------

void ExpectWcopBResultsIdentical(const WcopBResult& a, const WcopBResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].edit_size, b.rounds[i].edit_size) << i;
    EXPECT_EQ(a.rounds[i].ttd, b.rounds[i].ttd) << i;
    EXPECT_EQ(a.rounds[i].editing_distortion, b.rounds[i].editing_distortion)
        << i;
    EXPECT_EQ(a.rounds[i].total_distortion, b.rounds[i].total_distortion)
        << i;
    EXPECT_EQ(a.rounds[i].num_clusters, b.rounds[i].num_clusters) << i;
    EXPECT_EQ(a.rounds[i].trashed, b.rounds[i].trashed) << i;
  }
  EXPECT_EQ(a.final_edit_size, b.final_edit_size);
  EXPECT_EQ(a.bound_satisfied, b.bound_satisfied);
  ExpectDatasetsIdentical(a.anonymization.sanitized,
                          b.anonymization.sanitized);
  EXPECT_EQ(a.anonymization.trashed_ids, b.anonymization.trashed_ids);
  EXPECT_EQ(a.anonymization.report.ttd, b.anonymization.report.ttd);
  EXPECT_EQ(a.anonymization.report.total_distortion,
            b.anonymization.report.total_distortion);
}

TEST_F(CheckpointTest, WcopBResumeMatchesUninterruptedRun) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopOptions options;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 3;
  b.distort_max = 0.0;  // unreachable -> sweep runs to exhaustion, 3 rounds

  Result<WcopBResult> baseline = RunWcopB(d, options, b);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_EQ(baseline->rounds.size(), 3u);

  b.checkpoint_path = Path("wcopb.ckpt");
  {
    ScopedFailpoint fp("wcop_b.checkpoint_saved",
                       Status::Internal("simulated crash"), /*max_fires=*/1);
    Result<WcopBResult> interrupted = RunWcopB(d, options, b);
    ASSERT_FALSE(interrupted.ok());
  }
  ASSERT_TRUE(std::filesystem::exists(b.checkpoint_path));

  Result<WcopBResult> resumed = RunWcopB(d, options, b);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_EQ(resumed->resumed_rounds, 1u);
  ExpectWcopBResultsIdentical(*resumed, *baseline);
}

TEST_F(CheckpointTest, WcopBTerminalCheckpointReplaysResult) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopOptions options;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 2;
  b.distort_max = 0.0;
  b.checkpoint_path = Path("wcopb.ckpt");

  Result<WcopBResult> first = RunWcopB(d, options, b);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->resumed);

  // The terminal checkpoint stores the finished sweep: a re-run replays it
  // without recomputing any round.
  FailpointRegistry::Instance().EnableHitCounting(true);
  const uint64_t rounds_before =
      FailpointRegistry::Instance().HitCount("wcop_b.round");
  Result<WcopBResult> replay = RunWcopB(d, options, b);
  EXPECT_EQ(FailpointRegistry::Instance().HitCount("wcop_b.round"),
            rounds_before);
  FailpointRegistry::Instance().EnableHitCounting(false);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_TRUE(replay->resumed);
  ExpectWcopBResultsIdentical(*replay, *first);
}

TEST_F(CheckpointTest, WcopBRejectsForeignCheckpoint) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopOptions options;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 2;
  b.distort_max = 0.0;
  b.checkpoint_path = Path("wcopb.ckpt");
  ASSERT_TRUE(RunWcopB(d, options, b).ok());

  WcopBOptions different = b;
  different.max_edit_size = 3;
  Result<WcopBResult> r = RunWcopB(d, options, different);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << r.status();
}

// Degraded rounds are never checkpointed: a run whose context trips mid-
// sweep leaves either no checkpoint or one from before the trip, so the
// restart redoes the degraded work at full quality.
TEST_F(CheckpointTest, WcopBDegradedRoundIsNotCheckpointed) {
  const Dataset d = SmallSynthetic(15, 20);
  WcopOptions options;
  options.allow_partial_results = true;
  RunContext tight;
  ResourceBudget budget;
  budget.max_distance_computations = 1;  // trips during the first clustering
  tight.set_budget(budget);
  options.run_context = &tight;
  WcopBOptions b;
  b.step = 1;
  b.max_edit_size = 3;
  b.distort_max = 0.0;
  b.checkpoint_path = Path("wcopb.ckpt");

  Result<WcopBResult> tripped = RunWcopB(d, options, b);
  if (tripped.ok()) {
    EXPECT_TRUE(tripped->anonymization.report.degraded);
  }
  EXPECT_FALSE(std::filesystem::exists(b.checkpoint_path));
  EXPECT_FALSE(std::filesystem::exists(b.checkpoint_path + ".prev"));

  // Fresh context: the sweep runs from scratch at full quality.
  options.run_context = nullptr;
  options.allow_partial_results = false;
  Result<WcopBResult> clean = RunWcopB(d, options, b);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_FALSE(clean->resumed);
  EXPECT_FALSE(clean->anonymization.report.degraded);
}

// ---------------------------------------------------------------------------
// Upgrade compatibility: artifacts written by builds that spelled doubles
// printf("%.17g") still load, so a resume across the upgrade works.
// ---------------------------------------------------------------------------

// Rewrites every non-integer number token of `text` in the legacy %.17g
// spelling; integers, words and whitespace are kept byte for byte.
std::string LegacySpelling(std::string_view text) {
  auto is_space = [](char c) {
    return c == ' ' || c == '\n' || c == '\r' || c == '\t';
  };
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    if (is_space(text[i])) {
      out.push_back(text[i++]);
      continue;
    }
    size_t j = i;
    while (j < text.size() && !is_space(text[j])) {
      ++j;
    }
    const std::string_view token = text.substr(i, j - i);
    const std::optional<double> v = codec::ParseDouble(token);
    if (v.has_value() && token.find_first_of(".eEn") != std::string::npos) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", *v);
      out.append(buf);
    } else {
      out.append(token);
    }
    i = j;
  }
  return out;
}

// The streaming / WCOP-B payloads end in "end <020-digit byte count>\n";
// a legacy payload carries its own (longer) count.
std::string LegacyCheckpointPayload(const std::string& payload) {
  constexpr size_t kTrailer = 25;
  std::string body = LegacySpelling(payload.substr(0, payload.size() - kTrailer));
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "end %020zu\n",
                body.size() + kTrailer);
  return body + trailer;
}

TEST_F(CheckpointTest, LegacyStreamingAndWcopBCheckpointsDecode) {
  StreamingCheckpoint streaming;
  streaming.fingerprint = 77;
  streaming.total_ttd = 0.1 + 0.2;
  StreamingWindowSummary w;
  w.window_start = 1.0 / 3.0;
  w.ttd = 0.1;
  streaming.windows.push_back(w);
  Trajectory t = MakeLineWithReq(9, 0.1, -3.3, 0.1, 0.7, 5, 3, 0.3);
  streaming.published.push_back(t);
  const std::string current = EncodeStreamingCheckpoint(streaming);
  const std::string legacy = LegacyCheckpointPayload(current);
  ASSERT_NE(legacy, current);
  Result<StreamingCheckpoint> decoded = DecodeStreamingCheckpoint(legacy);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->total_ttd, streaming.total_ttd);
  ASSERT_EQ(decoded->windows.size(), 1u);
  EXPECT_EQ(decoded->windows[0].window_start, w.window_start);
  EXPECT_EQ(decoded->windows[0].ttd, w.ttd);
  ASSERT_EQ(decoded->published.size(), 1u);
  ExpectTrajectoriesIdentical(decoded->published[0], t);
  // Re-encoding gives the current spelling back: the bits are identical.
  EXPECT_EQ(EncodeStreamingCheckpoint(*decoded), current);

  WcopBCheckpoint wcop_b;
  WcopBRound round;
  round.ttd = 0.1;
  round.total_distortion = 2.0 / 3.0;
  wcop_b.rounds.push_back(round);
  wcop_b.anonymization.sanitized = Dataset({t});
  const std::string b_current = EncodeWcopBCheckpoint(wcop_b);
  Result<WcopBCheckpoint> b_decoded =
      DecodeWcopBCheckpoint(LegacyCheckpointPayload(b_current));
  ASSERT_TRUE(b_decoded.ok()) << b_decoded.status();
  EXPECT_EQ(EncodeWcopBCheckpoint(*b_decoded), b_current);
}

TEST_F(CheckpointTest, LegacyWindowManifestLoads) {
  pipeline::WindowManifest m;
  m.config_fingerprint = 0xfeedfacecafebeefULL;
  m.window_index = 3;
  m.window_start = 0.1;
  m.window_end = 900.1;
  m.ttd = 2.0 / 3.0;
  m.next_fragment_id = -9;
  const std::string current = pipeline::EncodeWindowManifest(m);
  const std::string legacy = LegacySpelling(current);
  ASSERT_NE(legacy, current);
  // Through the file path a resume takes: snapshot envelope + decode.
  const std::string path = Path("window_00003.mfr");
  ASSERT_TRUE(
      WriteSnapshotFile(path, legacy, pipeline::kWindowManifestVersion).ok());
  Result<pipeline::WindowManifest> loaded = pipeline::ReadWindowManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(pipeline::EncodeWindowManifest(*loaded), current);
  EXPECT_EQ(loaded->window_start, 0.1);
  EXPECT_EQ(loaded->ttd, 2.0 / 3.0);
}

TEST_F(CheckpointTest, LegacyJobRecordLoads) {
  server::JobRecord record;
  record.id = 5;
  record.spec.name = "legacy";
  record.spec.input_store = "/data/in.wst";
  record.spec.overlap_margin = 0.1;
  record.spec.assign_delta = 217.3;
  record.outcome.total_distortion = 12345.6789;
  record.progress.eta_seconds = 1.0 / 3.0;
  const std::string current = server::EncodeJobRecord(record);
  const std::string legacy = LegacySpelling(current);
  ASSERT_NE(legacy, current);
  Result<server::JobRecord> loaded = server::DecodeJobRecord(legacy);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(server::EncodeJobRecord(*loaded), current);
  EXPECT_EQ(loaded->spec.overlap_margin, 0.1);
  EXPECT_EQ(loaded->progress.eta_seconds, 1.0 / 3.0);
}

TEST_F(CheckpointTest, LegacyShardCheckpointsResume) {
  const std::string store_path = Path("source.wst");
  ASSERT_TRUE(store::WriteDatasetStore(SmallSynthetic(30, 20), store_path).ok());
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  store::ShardRunOptions run;
  run.wcop.seed = 9;
  run.partition.num_shards = 2;
  run.checkpoint_dir = Path("ckpt");
  Result<store::ShardedRunResult> first = store::RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(first.ok()) << first.status();

  // Rewrite every checkpoint in the legacy spelling, same envelope version.
  size_t respelled = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(run.checkpoint_dir)) {
    Result<Snapshot> snapshot = ReadSnapshotFile(entry.path().string());
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    const std::string legacy = LegacySpelling(snapshot->payload);
    respelled += legacy != snapshot->payload ? 1 : 0;
    ASSERT_TRUE(WriteSnapshotFile(entry.path().string(), legacy,
                                  snapshot->format_version)
                    .ok());
  }
  ASSERT_EQ(respelled, first->partition.shards.size());

  Result<store::ShardedRunResult> resumed =
      store::RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_shards, first->partition.shards.size());
  ExpectDatasetsIdentical(first->merged.sanitized, resumed->merged.sanitized);
  EXPECT_EQ(first->merged.report.ttd, resumed->merged.report.ttd);
  EXPECT_EQ(first->merged.trashed_ids, resumed->merged.trashed_ids);
}

TEST_F(CheckpointTest, MalformedNumbersAreRejectedNotMisread) {
  pipeline::WindowManifest m;
  m.window_start = 0.5;
  std::string manifest = pipeline::EncodeWindowManifest(m);
  const size_t at = manifest.find(" 0.5 ");
  ASSERT_NE(at, std::string::npos);
  for (const char* bad : {"0.5x", "1e", "+0.5", "0x1p-1"}) {
    std::string damaged = manifest;
    damaged.replace(at + 1, 3, bad);
    EXPECT_EQ(pipeline::DecodeWindowManifest(damaged).status().code(),
              StatusCode::kDataLoss)
        << bad;
  }

  // A job record wraps the field's ParseError as kDataLoss; a submitted
  // spec reports the ParseError itself.
  server::JobRecord record;
  record.id = 1;
  const std::string text = server::EncodeJobRecord(record);
  const std::string spec = server::EncodeJobSpec(record.spec);
  for (const std::string& bad :
       {std::string("1.5x"), std::string("1e"), std::string(""),
        std::string("+1"), std::string(40, '7')}) {
    EXPECT_EQ(server::DecodeJobRecord(text + "total_distortion " + bad + "\n")
                  .status()
                  .code(),
              StatusCode::kDataLoss)
        << bad;
    EXPECT_EQ(server::DecodeJobSpec(spec + "overlap_margin " + bad + "\n")
                  .status()
                  .code(),
              StatusCode::kParseError)
        << bad;
  }

  StreamingCheckpoint streaming;
  streaming.total_ttd = 0.5;
  const std::string payload = EncodeStreamingCheckpoint(streaming);
  const size_t ttd_at = payload.find(" 0.5 ");
  ASSERT_NE(ttd_at, std::string::npos);
  std::string damaged = payload;
  damaged.replace(ttd_at + 1, 3, "0.5x");
  // Keep the byte count honest so only the number is wrong.
  damaged = LegacyCheckpointPayload(
      damaged.substr(0, damaged.size() - 25) + "end 00000000000000000000\n");
  EXPECT_EQ(DecodeStreamingCheckpoint(damaged).status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace wcop
