#include "server/job_ledger.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/failpoint.h"
#include "common/telemetry.h"
#include "server/job.h"

namespace wcop {
namespace server {
namespace {

// ---------------------------------------------------------------------------
// Token escaping: any string must survive the line-oriented codec.
// ---------------------------------------------------------------------------

TEST(JobCodecTest, EscapeRoundTripsHostileStrings) {
  const std::string cases[] = {
      "",
      "plain",
      "with space",
      "tab\tand\nnewline",
      "percent % sign",
      "path/with spaces/and%20escapes.csv",
      std::string("embedded\0nul", 12),
      "unicode \xc3\xa9\xc3\xa8",
  };
  for (const std::string& raw : cases) {
    const std::string escaped = EscapeToken(raw);
    // The escaped form must be a single shell-safe token: no whitespace.
    EXPECT_EQ(escaped.find(' '), std::string::npos) << escaped;
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << escaped;
    Result<std::string> back = UnescapeToken(escaped);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, raw);
  }
}

TEST(JobCodecTest, UnescapeRejectsMalformedEscapes) {
  EXPECT_FALSE(UnescapeToken("%").ok());      // truncated
  EXPECT_FALSE(UnescapeToken("abc%2").ok());  // truncated
  EXPECT_FALSE(UnescapeToken("%zz").ok());    // not hex
  EXPECT_FALSE(UnescapeToken("ok%G0").ok());
}

TEST(JobCodecTest, JobStateNamesRoundTrip) {
  for (JobState state : {JobState::kQueued, JobState::kRunning,
                         JobState::kDone, JobState::kFailed}) {
    Result<JobState> back = JobStateFromName(JobStateName(state));
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(*back, state);
  }
  EXPECT_FALSE(JobStateFromName("zombie").ok());
}

// ---------------------------------------------------------------------------
// Record codec: every field round-trips exactly.
// ---------------------------------------------------------------------------

JobRecord FullRecord() {
  JobRecord record;
  record.id = 42;
  record.state = JobState::kFailed;
  record.attempts = 3;
  record.spec.name = "nightly-batch_1.7";
  record.spec.tenant = "acme corp";  // space exercises the escaper
  record.spec.input_store = "/data/in put.wst";
  record.spec.output_csv = "/data/out 42.csv";
  record.spec.assign_k = 5;
  record.spec.assign_delta = 217.625;  // dyadic: exact in binary
  record.spec.shards = 4;
  record.spec.overlap_margin = 0.1;  // non-dyadic: must round-trip exactly
  record.spec.deadline_ms = 60000;
  record.spec.max_distance_computations = 1234567;
  record.spec.allow_partial = true;
  record.spec.seed = 99;
  record.outcome.degraded = true;
  record.outcome.degraded_reason = "deadline pressure: 2 shards suppressed";
  record.outcome.verified = true;
  record.outcome.published = 38;
  record.outcome.suppressed = 2;
  record.outcome.clusters = 9;
  record.outcome.total_distortion = 12345.6789;
  record.outcome.resumed_shards = 1;
  record.outcome.error = "Internal: something with\nnewlines % and spaces";
  record.trace_id = "wcop-job-00c0ffee00c0ffee";
  record.progress.shards_done = 3;
  record.progress.shards_total = 4;
  record.progress.distance_calls = 987654321;
  record.progress.eta_seconds = 1.5;
  return record;
}

TEST(JobCodecTest, RecordRoundTripsAllFields) {
  const JobRecord record = FullRecord();
  Result<JobRecord> back = DecodeJobRecord(EncodeJobRecord(record));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->id, record.id);
  EXPECT_EQ(back->state, record.state);
  EXPECT_EQ(back->attempts, record.attempts);
  EXPECT_EQ(back->spec.name, record.spec.name);
  EXPECT_EQ(back->spec.tenant, record.spec.tenant);
  EXPECT_EQ(back->spec.input_store, record.spec.input_store);
  EXPECT_EQ(back->spec.output_csv, record.spec.output_csv);
  EXPECT_EQ(back->spec.assign_k, record.spec.assign_k);
  EXPECT_EQ(back->spec.assign_delta, record.spec.assign_delta);
  EXPECT_EQ(back->spec.shards, record.spec.shards);
  EXPECT_EQ(back->spec.overlap_margin, record.spec.overlap_margin);
  EXPECT_EQ(back->spec.deadline_ms, record.spec.deadline_ms);
  EXPECT_EQ(back->spec.max_distance_computations,
            record.spec.max_distance_computations);
  EXPECT_EQ(back->spec.allow_partial, record.spec.allow_partial);
  EXPECT_EQ(back->spec.seed, record.spec.seed);
  EXPECT_EQ(back->outcome.degraded, record.outcome.degraded);
  EXPECT_EQ(back->outcome.degraded_reason, record.outcome.degraded_reason);
  EXPECT_EQ(back->outcome.verified, record.outcome.verified);
  EXPECT_EQ(back->outcome.published, record.outcome.published);
  EXPECT_EQ(back->outcome.suppressed, record.outcome.suppressed);
  EXPECT_EQ(back->outcome.clusters, record.outcome.clusters);
  EXPECT_EQ(back->outcome.total_distortion, record.outcome.total_distortion);
  EXPECT_EQ(back->outcome.resumed_shards, record.outcome.resumed_shards);
  EXPECT_EQ(back->outcome.error, record.outcome.error);
  EXPECT_EQ(back->trace_id, record.trace_id);
  EXPECT_EQ(back->progress.shards_done, record.progress.shards_done);
  EXPECT_EQ(back->progress.shards_total, record.progress.shards_total);
  EXPECT_EQ(back->progress.distance_calls, record.progress.distance_calls);
  EXPECT_EQ(back->progress.eta_seconds, record.progress.eta_seconds);
  // The codec is deterministic: encode(decode(encode(r))) == encode(r).
  EXPECT_EQ(EncodeJobRecord(*back), EncodeJobRecord(record));
}

TEST(JobCodecTest, DecodeRejectsGarbageAsDataLoss) {
  // Inside the ledger the payload already passed the envelope CRC, so a
  // record that does not parse is corruption, not a transient error.
  Result<JobRecord> r = DecodeJobRecord("not a record at all");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(DecodeJobRecord("state done\nattempts 1\n").ok())
      << "a record without an id must not decode";
}

TEST(JobCodecTest, SpecRoundTripsThroughRequestBody) {
  const JobSpec spec = FullRecord().spec;
  Result<JobSpec> back = DecodeJobSpec(EncodeJobSpec(spec));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->name, spec.name);
  EXPECT_EQ(back->tenant, spec.tenant);
  EXPECT_EQ(back->input_store, spec.input_store);
  EXPECT_EQ(back->shards, spec.shards);
  EXPECT_EQ(back->allow_partial, spec.allow_partial);
}

// ---------------------------------------------------------------------------
// Spec validation: the admission gate for client-controlled fields.
// ---------------------------------------------------------------------------

JobSpec MinimalValidSpec() {
  JobSpec spec;
  spec.name = "job-1";
  spec.input_store = "/data/in.wst";
  return spec;
}

TEST(JobCodecTest, ValidateAcceptsMinimalSpec) {
  EXPECT_TRUE(ValidateJobSpec(MinimalValidSpec()).ok());
}

TEST(JobCodecTest, ValidateRejectsBadFields) {
  auto expect_invalid = [](JobSpec spec, const char* what) {
    const Status s = ValidateJobSpec(spec);
    ASSERT_FALSE(s.ok()) << what;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << what;
  };
  JobSpec spec = MinimalValidSpec();
  spec.name = "";
  expect_invalid(spec, "empty name");
  spec = MinimalValidSpec();
  spec.name = "has space";
  expect_invalid(spec, "name charset");
  spec = MinimalValidSpec();
  spec.name = "sl/ash";
  expect_invalid(spec, "name with path separator");
  spec = MinimalValidSpec();
  spec.name.assign(200, 'a');
  expect_invalid(spec, "overlong name");
  spec = MinimalValidSpec();
  spec.input_store = "";
  expect_invalid(spec, "missing input store");
  spec = MinimalValidSpec();
  spec.assign_k = 1;
  expect_invalid(spec, "k == 1 is not a privacy requirement");
  spec = MinimalValidSpec();
  spec.assign_k = -3;
  expect_invalid(spec, "negative k");
  spec = MinimalValidSpec();
  spec.assign_delta = -1.0;
  expect_invalid(spec, "negative delta");
  spec = MinimalValidSpec();
  spec.shards = 0;
  expect_invalid(spec, "zero shards");
  spec = MinimalValidSpec();
  spec.shards = 100000;
  expect_invalid(spec, "absurd shard count");
  spec = MinimalValidSpec();
  spec.deadline_ms = -5;
  expect_invalid(spec, "negative deadline");
}

// ---------------------------------------------------------------------------
// The durable ledger itself.
// ---------------------------------------------------------------------------

class JobLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("job_ledger_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    std::filesystem::remove_all(dir_);
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Dir() const { return dir_.string(); }

  std::filesystem::path dir_;
};

TEST_F(JobLedgerTest, AppendAssignsSequentialIdsAndPersists) {
  telemetry::Telemetry telemetry;
  Result<std::unique_ptr<JobLedger>> ledger = JobLedger::Open(Dir(),
                                                              &telemetry);
  ASSERT_TRUE(ledger.ok()) << ledger.status();
  EXPECT_TRUE((*ledger)->Records().empty());

  JobRecord a = FullRecord();
  a.spec.name = "a";
  JobRecord b = FullRecord();
  b.spec.name = "b";
  ASSERT_TRUE((*ledger)->Append(&a).ok());
  ASSERT_TRUE((*ledger)->Append(&b).ok());
  EXPECT_EQ(a.id, 1);
  EXPECT_EQ(b.id, 2);

  a.state = JobState::kDone;
  ASSERT_TRUE((*ledger)->Update(a).ok());

  // Reopen: both records come back exactly, in id order, and the id
  // allocator continues past them.
  Result<std::unique_ptr<JobLedger>> reopened = JobLedger::Open(Dir());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::vector<JobRecord> records = (*reopened)->Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(EncodeJobRecord(records[0]), EncodeJobRecord(a));
  EXPECT_EQ(EncodeJobRecord(records[1]), EncodeJobRecord(b));
  JobRecord c;
  c.spec = MinimalValidSpec();
  ASSERT_TRUE((*reopened)->Append(&c).ok());
  EXPECT_EQ(c.id, 3);
  EXPECT_EQ((*ledger)->dir(), Dir());
  EXPECT_EQ(telemetry.metrics().Snapshot().CounterValue(
                "server.ledger.appends"),
            2u);
}

TEST_F(JobLedgerTest, UpdateOfUnknownIdIsNotFound) {
  Result<std::unique_ptr<JobLedger>> ledger = JobLedger::Open(Dir());
  ASSERT_TRUE(ledger.ok()) << ledger.status();
  JobRecord ghost = FullRecord();
  ghost.id = 9;
  EXPECT_EQ((*ledger)->Update(ghost).code(), StatusCode::kNotFound);
}

TEST_F(JobLedgerTest, RepeatedUpdatesLeaveOneRecordPerJob) {
  // The rotating writer leaves `.prev` siblings; reopening must not read
  // them as extra jobs.
  {
    Result<std::unique_ptr<JobLedger>> ledger = JobLedger::Open(Dir());
    ASSERT_TRUE(ledger.ok()) << ledger.status();
    JobRecord record;
    record.spec = MinimalValidSpec();
    ASSERT_TRUE((*ledger)->Append(&record).ok());
    record.state = JobState::kRunning;
    record.attempts = 1;
    ASSERT_TRUE((*ledger)->Update(record).ok());
    record.state = JobState::kDone;
    ASSERT_TRUE((*ledger)->Update(record).ok());
  }
  Result<std::unique_ptr<JobLedger>> reopened = JobLedger::Open(Dir());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::vector<JobRecord> records = (*reopened)->Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].state, JobState::kDone);
}

TEST_F(JobLedgerTest, CorruptRecordIsSkippedAndCounted) {
  {
    Result<std::unique_ptr<JobLedger>> ledger = JobLedger::Open(Dir());
    ASSERT_TRUE(ledger.ok()) << ledger.status();
    JobRecord a;
    a.spec = MinimalValidSpec();
    a.spec.name = "keeper";
    JobRecord b;
    b.spec = MinimalValidSpec();
    b.spec.name = "victim";
    ASSERT_TRUE((*ledger)->Append(&a).ok());
    ASSERT_TRUE((*ledger)->Append(&b).ok());
  }
  // Smash job 2's snapshot (no .prev exists for a once-written record, so
  // the fallback cannot save it).
  {
    std::ofstream smash(dir_ / "job_00000002.jrec",
                        std::ios::binary | std::ios::trunc);
    smash << "garbage that is not a snapshot envelope";
  }
  telemetry::Telemetry telemetry;
  Result<std::unique_ptr<JobLedger>> reopened = JobLedger::Open(Dir(),
                                                                &telemetry);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::vector<JobRecord> records = (*reopened)->Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].spec.name, "keeper");
  EXPECT_EQ((*reopened)->corrupt_records(), 1u);
  EXPECT_EQ(telemetry.metrics().Snapshot().CounterValue(
                "server.ledger.corrupt"),
            1u);
  // The corrupt id is never reused for new work: the allocator only counts
  // upward from the largest id ever seen on disk.
  JobRecord fresh;
  fresh.spec = MinimalValidSpec();
  ASSERT_TRUE((*reopened)->Append(&fresh).ok());
  EXPECT_EQ(fresh.id, 3);
}

TEST_F(JobLedgerTest, OpenSweepsStaleTmpArtifacts) {
  std::filesystem::create_directories(dir_);
  {
    std::ofstream orphan(dir_ / "job_00000001.jrec.tmp", std::ios::binary);
    orphan << "torn write";
  }
  telemetry::Telemetry telemetry;
  Result<std::unique_ptr<JobLedger>> ledger = JobLedger::Open(Dir(),
                                                              &telemetry);
  ASSERT_TRUE(ledger.ok()) << ledger.status();
  EXPECT_FALSE(std::filesystem::exists(dir_ / "job_00000001.jrec.tmp"));
  EXPECT_EQ(telemetry.metrics().Snapshot().CounterValue(
                "janitor.stale_removed"),
            1u);
}

TEST_F(JobLedgerTest, FailpointsCoverBothTransitions) {
  Result<std::unique_ptr<JobLedger>> ledger = JobLedger::Open(Dir());
  ASSERT_TRUE(ledger.ok()) << ledger.status();
  JobRecord record;
  record.spec = MinimalValidSpec();
  {
    ScopedFailpoint fp("server.ledger_append", Status::IoError("injected"));
    EXPECT_EQ((*ledger)->Append(&record).code(), StatusCode::kIoError);
  }
  ASSERT_TRUE((*ledger)->Append(&record).ok());
  {
    ScopedFailpoint fp("server.ledger_update", Status::IoError("injected"));
    EXPECT_EQ((*ledger)->Update(record).code(), StatusCode::kIoError);
  }
  EXPECT_TRUE((*ledger)->Update(record).ok());
}

}  // namespace
}  // namespace server
}  // namespace wcop
