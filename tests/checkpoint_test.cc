#include "anon/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "anon/wcop_b.h"
#include "common/failpoint.h"
#include "common/number_codec.h"
#include "common/snapshot.h"
#include "pipeline/continuous.h"
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
// all inside [0, 290] s, clusterable under k=2, delta=300.
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
  for (const char* garbage : {"", "not a checkpoint at all"}) {
    Result<WcopBCheckpoint> wcop_b = DecodeWcopBCheckpoint(garbage);
    ASSERT_FALSE(wcop_b.ok()) << garbage;
    EXPECT_EQ(wcop_b.status().code(), StatusCode::kDataLoss) << garbage;
  }
}

TEST_F(CheckpointTest, DecodeRejectsTruncationAsDataLoss) {
  WcopBCheckpoint checkpoint;
  checkpoint.rounds.push_back(WcopBRound{});
  checkpoint.counters = {{"a", 1}};
  const std::string payload = EncodeWcopBCheckpoint(checkpoint);
  for (size_t cut : {payload.size() - 1, payload.size() / 2, size_t{5}}) {
    Result<WcopBCheckpoint> decoded =
        DecodeWcopBCheckpoint(payload.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "cut=" << cut;
  }
}

TEST_F(CheckpointTest, DecodeRejectsUnknownVersionAsFailedPrecondition) {
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

  WcopOptions wcop;
  WcopBOptions b;
  WcopBOptions bigger_step = b;
  bigger_step.step = b.step + 1;
  EXPECT_EQ(WcopBConfigFingerprint(d, wcop, b),
            WcopBConfigFingerprint(d, wcop, b));
  EXPECT_NE(WcopBConfigFingerprint(d, wcop, b),
            WcopBConfigFingerprint(d, wcop, bigger_step));
  EXPECT_NE(WcopBConfigFingerprint(d, wcop, b),
            WcopBConfigFingerprint(moved, wcop, b));

  // Determinism-relevant options change the options fingerprint; threads
  // never change published bytes, so they do not.
  WcopOptions reseeded = wcop;
  reseeded.seed = wcop.seed + 1;
  WcopOptions threaded = wcop;
  threaded.threads = 8;
  EXPECT_NE(WcopOptionsFingerprint(wcop), WcopOptionsFingerprint(reseeded));
  EXPECT_EQ(WcopOptionsFingerprint(wcop), WcopOptionsFingerprint(threaded));
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

// WCOP-B payloads end in "end <020-digit byte count>\n";
// a legacy payload carries its own (longer) count.
std::string LegacyCheckpointPayload(const std::string& payload) {
  constexpr size_t kTrailer = 25;
  std::string body = LegacySpelling(payload.substr(0, payload.size() - kTrailer));
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "end %020zu\n",
                body.size() + kTrailer);
  return body + trailer;
}

TEST_F(CheckpointTest, LegacyWcopBCheckpointDecodes) {
  const Trajectory t = MakeLineWithReq(9, 0.1, -3.3, 0.1, 0.7, 5, 3, 0.3);
  WcopBCheckpoint wcop_b;
  WcopBRound round;
  round.ttd = 0.1;
  round.total_distortion = 2.0 / 3.0;
  wcop_b.rounds.push_back(round);
  wcop_b.anonymization.sanitized = Dataset({t});
  const std::string current = EncodeWcopBCheckpoint(wcop_b);
  const std::string legacy = LegacyCheckpointPayload(current);
  ASSERT_NE(legacy, current);
  Result<WcopBCheckpoint> decoded = DecodeWcopBCheckpoint(legacy);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->rounds.size(), 1u);
  EXPECT_EQ(decoded->rounds[0].ttd, round.ttd);
  EXPECT_EQ(decoded->rounds[0].total_distortion, round.total_distortion);
  ExpectDatasetsIdentical(decoded->anonymization.sanitized,
                          wcop_b.anonymization.sanitized);
  // Re-encoding gives the current spelling back: the bits are identical.
  EXPECT_EQ(EncodeWcopBCheckpoint(*decoded), current);
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

// Shard checkpoints share the WCOP-B trailer, so a respelled payload gets
// its byte count rewritten the same way.
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
    const std::string legacy = LegacyCheckpointPayload(snapshot->payload);
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

  // Version-1 checkpoints, from builds before the shared result codec, fail
  // the envelope version check: every shard recomputes to the same bytes.
  for (const auto& entry :
       std::filesystem::directory_iterator(run.checkpoint_dir)) {
    Result<Snapshot> snapshot = ReadSnapshotFile(entry.path().string());
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    ASSERT_TRUE(WriteSnapshotFile(entry.path().string(), snapshot->payload,
                                  /*format_version=*/1)
                    .ok());
  }
  Result<store::ShardedRunResult> recomputed =
      store::RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status();
  EXPECT_EQ(recomputed->resumed_shards, 0u);
  ExpectDatasetsIdentical(first->merged.sanitized,
                          recomputed->merged.sanitized);
  EXPECT_EQ(first->merged.report.ttd, recomputed->merged.report.ttd);
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

  WcopBCheckpoint wcop_b;
  WcopBRound round;
  round.ttd = 0.5;
  wcop_b.rounds.push_back(round);
  const std::string payload = EncodeWcopBCheckpoint(wcop_b);
  const size_t ttd_at = payload.find(" 0.5 ");
  ASSERT_NE(ttd_at, std::string::npos);
  std::string damaged = payload;
  damaged.replace(ttd_at + 1, 3, "0.5x");
  // Keep the byte count honest so only the number is wrong.
  damaged = LegacyCheckpointPayload(
      damaged.substr(0, damaged.size() - 25) + "end 00000000000000000000\n");
  EXPECT_EQ(DecodeWcopBCheckpoint(damaged).status().code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// Golden values. Window manifests and shard checkpoints on disk store these
// fingerprints, and WCOP-B checkpoints written by older builds must still
// resume, so every value and payload below was produced by an earlier build
// and must never change.
// ---------------------------------------------------------------------------

// A checkpoint touching every field of the payload, blob bytes included.
WcopBCheckpoint GoldenWcopBCheckpoint() {
  WcopBCheckpoint c;
  c.fingerprint = 0x0123456789abcdefULL;
  c.next_edit_size = 3;
  c.terminal = false;
  c.bound_satisfied = true;
  c.final_edit_size = 2;
  c.rounds.push_back(WcopBRound{1, 12.5, 0.25, 12.75, 2, 1});
  c.rounds.push_back(WcopBRound{2, 1.0 / 3.0, -0.0, 1e-300, 1, 0});
  Trajectory t(5, {Point(0.1, -2.5, 0.0), Point(1e10, 3.25, 10.0)},
               Requirement{3, 150.5});
  t.set_object_id(7);
  t.set_parent_id(-1);
  c.anonymization.sanitized = Dataset({t, Trajectory(6, {}, Requirement{2, 1.0})});
  c.anonymization.trashed_ids = {9, -4};
  AnonymityCluster cluster;
  cluster.pivot = 1;
  cluster.k = 3;
  cluster.delta = 150.5;
  cluster.members = {0, 1};
  c.anonymization.clusters.push_back(cluster);
  AnonymizationReport& r = c.anonymization.report;
  r.input_trajectories = 3;
  r.num_clusters = 1;
  r.trashed_trajectories = 1;
  r.trashed_points = 4;
  r.discernibility = 9.5;
  r.created_points = 6;
  r.deleted_points = 2;
  r.total_spatial_translation = 100.125;
  r.total_temporal_translation = 7.0;
  r.avg_spatial_translation = 50.0625;
  r.avg_temporal_translation = 3.5;
  r.omega = 0.7;
  r.ttd = 107.125;
  r.editing_distortion = 0.5;
  r.total_distortion = 107.625;
  r.runtime_seconds = 0.001;
  r.clustering_rounds = 2;
  r.final_radius = 4096.0;
  r.degraded = true;
  r.degraded_reason = "budget tripped\n at 2 ";
  c.counters = {{"wcop_b.rounds", 2}, {"name with space", 18446744073709551615ULL}};
  return c;
}

// Written by the WCOP-B encoder that predates the shared result codec: each
// trajectory on one line, where the store text record now breaks after the
// header and after every point. Only separators differ.
constexpr char kParentWcopBPayload[] =
    "wcop-b-checkpoint 1\n"
    "fingerprint 81985529216486895\n"
    "state 3 0 1 2\n"
    "nrounds 2\n"
    "round 1 12.5 0.25 12.75 2 1\n"
    "round 2 0.3333333333333333 -0 1e-300 1 0\n"
    "ntraj 2\n"
    "traj 5 7 -1 3 150.5 2 0.1 -2.5 0 1e+10 3.25 10\n"
    "traj 6 0 -1 2 1 0\n"
    "ntrashed 2 9 -4\n"
    "nclusters 1\n"
    "cluster 1 3 150.5 2 0 1\n"
    "report 3 1 1 4 9.5 6 2 100.125 7 50.0625 3.5 0.7 107.125 0.5 107.625 "
    "0.001 2 4096 1 21 budget tripped\n"
    " at 2 \n"
    "ncounters 2\n"
    "counter 13 wcop_b.rounds 2\n"
    "counter 15 name with space 18446744073709551615\n"
    "end 00000000000000000489\n";

// `text` with every newline turned into a space.
std::string SeparatorsAsSpaces(std::string text) {
  for (char& c : text) {
    if (c == '\n') {
      c = ' ';
    }
  }
  return text;
}

TEST_F(CheckpointTest, ParentWcopBPayloadDecodesAndReencodes) {
  const std::string parent = kParentWcopBPayload;
  Result<WcopBCheckpoint> decoded = DecodeWcopBCheckpoint(parent);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const WcopBCheckpoint want = GoldenWcopBCheckpoint();
  EXPECT_EQ(decoded->fingerprint, want.fingerprint);
  EXPECT_EQ(decoded->next_edit_size, want.next_edit_size);
  EXPECT_EQ(decoded->terminal, want.terminal);
  EXPECT_EQ(decoded->bound_satisfied, want.bound_satisfied);
  EXPECT_EQ(decoded->final_edit_size, want.final_edit_size);
  ASSERT_EQ(decoded->rounds.size(), want.rounds.size());
  EXPECT_TRUE(std::signbit(decoded->rounds[1].editing_distortion));
  ExpectDatasetsIdentical(decoded->anonymization.sanitized,
                          want.anonymization.sanitized);
  EXPECT_EQ(decoded->anonymization.trashed_ids,
            want.anonymization.trashed_ids);
  ASSERT_EQ(decoded->anonymization.clusters.size(), 1u);
  EXPECT_EQ(decoded->anonymization.clusters[0].members,
            want.anonymization.clusters[0].members);
  EXPECT_EQ(decoded->anonymization.report.runtime_seconds,
            want.anonymization.report.runtime_seconds);
  EXPECT_EQ(decoded->anonymization.report.degraded_reason,
            want.anonymization.report.degraded_reason);
  EXPECT_EQ(decoded->counters, want.counters);

  // Re-encoding gives the same checkpoint: the same tokens and byte count,
  // and the encoding of the in-memory original.
  const std::string again = EncodeWcopBCheckpoint(*decoded);
  EXPECT_EQ(again, EncodeWcopBCheckpoint(want));
  ASSERT_EQ(again.size(), parent.size());
  EXPECT_EQ(SeparatorsAsSpaces(again), SeparatorsAsSpaces(parent));
}

// Every hashed WcopOptions field off its default.
WcopOptions TunedOptions() {
  WcopOptions o;
  o.trash_fraction = 0.25;
  o.trash_max_override = 3;
  o.radius_max = 1234.5;
  o.radius_growth = 2.0;
  o.max_clustering_rounds = 9;
  o.distance.kind = DistanceConfig::Kind::kSynchronizedEuclidean;
  o.distance.tolerance.dx = 11.0;
  o.distance.tolerance.dy = 12.0;
  o.distance.tolerance.dt = 13.0;
  o.distance.edr_scale = 999.0;
  o.seed = 42;
  o.pivot_policy = WcopOptions::PivotPolicy::kFarthestFirst;
  o.clustering_algo = WcopOptions::ClusteringAlgo::kAgglomerative;
  o.delta_policy = WcopOptions::DeltaPolicy::kMean;
  return o;
}

TEST_F(CheckpointTest, FingerprintsMatchGoldenValues) {
  const Dataset d = CompactDataset();
  WcopBOptions b;
  WcopBOptions tuned_b;
  tuned_b.distort_max = 5.5;
  tuned_b.step = 2;
  tuned_b.w1 = 0.25;
  tuned_b.w2 = 0.75;
  tuned_b.max_edit_size = 4;
  tuned_b.edit_policy = WcopBOptions::EditPolicy::kProportional;
  tuned_b.proportional_strength = 0.125;
  EXPECT_EQ(DatasetFingerprint(d), 6589787824370155541ULL);
  EXPECT_EQ(WcopOptionsFingerprint(WcopOptions()), 10917377593746694651ULL);
  EXPECT_EQ(WcopOptionsFingerprint(TunedOptions()), 2003525769357139722ULL);
  EXPECT_EQ(WcopBConfigFingerprint(d, WcopOptions(), b),
            635104363078569722ULL);
  EXPECT_EQ(WcopBConfigFingerprint(d, TunedOptions(), tuned_b),
            9289836316039332419ULL);
}

TEST_F(CheckpointTest, PipelineManifestFingerprintMatchesGoldenValue) {
  const std::string source = Path("source.wst");
  ASSERT_TRUE(store::WriteDatasetStore(CompactDataset(), source).ok());
  pipeline::ContinuousPipelineOptions options;
  options.source_store = source;
  options.output_dir = Path("out");
  options.window_seconds = 100.0;
  options.wcop.seed = 7;
  Result<pipeline::ContinuousPipelineResult> run =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(run.ok()) << run.status();
  Result<pipeline::WindowManifest> first =
      pipeline::ReadWindowManifest(Path("out/window_00000.mfr"));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->config_fingerprint, 16103006094495835266ULL);
}

TEST_F(CheckpointTest, ShardCheckpointFingerprintMatchesGoldenValue) {
  const std::string source = Path("source.wst");
  ASSERT_TRUE(store::WriteDatasetStore(SmallSynthetic(30, 20), source).ok());
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(source);
  ASSERT_TRUE(reader.ok()) << reader.status();
  store::ShardRunOptions run;
  run.wcop.seed = 9;
  run.partition.num_shards = 2;
  run.checkpoint_dir = Path("ckpt");
  ASSERT_TRUE(store::RunShardedWcopCt(*reader, run).ok());
  Result<Snapshot> snapshot = ReadSnapshotFile(Path("ckpt/shard_00000.ckpt"));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  // Every shard checkpoint version opens "wcop-shard-checkpoint <version>
  // fingerprint <value>".
  codec::TokenScanner scan(snapshot->payload, "shard checkpoint");
  ASSERT_TRUE(scan.Expect("wcop-shard-checkpoint").ok());
  ASSERT_TRUE(scan.NextUint().ok());
  ASSERT_TRUE(scan.Expect("fingerprint").ok());
  Result<uint64_t> fingerprint = scan.NextUint();
  ASSERT_TRUE(fingerprint.ok()) << fingerprint.status();
  EXPECT_EQ(*fingerprint, 709140037174838106ULL);
}

}  // namespace
}  // namespace wcop
