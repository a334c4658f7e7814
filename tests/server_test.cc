// End-to-end tests of the anonymization service: admission, backpressure,
// deadlines/budgets, tenant policy, drain vs. immediate shutdown, in-process
// ledger recovery, and the HTTP endpoint + client over a real unix socket.
//
// Deterministic jamming: several tests need the single worker to be busy
// while the test probes the queue. They submit a "slow" job (a dataset big
// enough that its pairwise-distance phase dominates), wait until the health
// endpoint reports it running, and then interact with a queue that is
// guaranteed not to drain for the duration of the probe.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "server/client.h"
#include "server/endpoint.h"
#include "server/service.h"
#include "store/store_file.h"
#include "test_util.h"

namespace wcop {
namespace server {
namespace {

using testing_util::SmallSynthetic;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("server_" + std::string(::testing::UnitTest::GetInstance()
                                        ->current_test_info()
                                        ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Small input: anonymizes in a few milliseconds.
  std::string SmallStore() {
    const std::string path = Path("small.wst");
    if (!std::filesystem::exists(path)) {
      EXPECT_TRUE(
          store::WriteDatasetStore(SmallSynthetic(24, 24), path).ok());
    }
    return path;
  }

  // Big input: the O(n^2 m^2) distance phase keeps a worker busy long
  // enough (hundreds of milliseconds) for the test to probe a full queue.
  std::string SlowStore() {
    const std::string path = Path("slow.wst");
    if (!std::filesystem::exists(path)) {
      EXPECT_TRUE(
          store::WriteDatasetStore(SmallSynthetic(120, 80), path).ok());
    }
    return path;
  }

  // Four far-apart synthetic cities: the input shape the partitioner can
  // split into multiple shards (one dense city collapses to one shard by
  // design). Needed by the live-progress and trace tests.
  std::string TiledStore() {
    const std::string path = Path("tiled.wst");
    if (!std::filesystem::exists(path)) {
      SyntheticOptions options;
      options.seed = 21;
      options.num_users = 8;
      options.num_trajectories = 20;
      options.points_per_trajectory = 24;
      options.sampling_interval = 10.0;
      options.region_half_diagonal = 6000.0;
      options.num_hubs = 5;
      options.num_routes = 4;
      options.dataset_duration_days = 10.0;
      Dataset dataset =
          GenerateTiledSyntheticGeoLife(options, 4, 200000.0).value();
      Rng rng(22);
      AssignUniformRequirements(&dataset, 2, 4, 10.0, 200.0, &rng);
      EXPECT_TRUE(store::WriteDatasetStore(dataset, path).ok());
    }
    return path;
  }

  ServiceOptions BaseOptions() {
    ServiceOptions options;
    options.job_dir = Path("jobs");
    options.queue_capacity = 8;
    options.workers = 1;
    return options;
  }

  static JobSpec Spec(const std::string& name, const std::string& input) {
    JobSpec spec;
    spec.name = name;
    spec.input_store = input;
    return spec;
  }

  // Blocks until `service` reports a job executing (the jam is in place).
  static void AwaitRunning(AnonymizationService* service) {
    for (int i = 0; i < 10000; ++i) {
      if (service->GetHealth().running > 0) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FAIL() << "no job started running within the wait budget";
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// The happy path.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SubmitRunsToVerifiedPublishedOutput) {
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(BaseOptions());
  ASSERT_TRUE(service.ok()) << service.status();

  JobSpec spec = Spec("basic", SmallStore());
  spec.shards = 2;
  Result<int64_t> id = (*service)->Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status();
  (*service)->AwaitIdle();

  Result<JobRecord> record = (*service)->GetJob(*id);
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_EQ(record->state, JobState::kDone);
  EXPECT_EQ(record->attempts, 1u);
  EXPECT_TRUE(record->outcome.verified);
  EXPECT_FALSE(record->outcome.degraded);
  EXPECT_GT(record->outcome.published, 0u);
  // The default output path and atomic publication: the CSV exists, no
  // .tmp orphan remains.
  const std::string out = (*service)->job_dir() + "/out/basic.csv";
  EXPECT_EQ(record->spec.output_csv, out);
  EXPECT_TRUE(std::filesystem::exists(out));
  EXPECT_FALSE(std::filesystem::exists(out + ".tmp"));

  const telemetry::MetricsSnapshot metrics =
      (*service)->telemetry().metrics().Snapshot();
  EXPECT_EQ(metrics.CounterValue("server.jobs.accepted"), 1u);
  EXPECT_EQ(metrics.CounterValue("server.jobs.completed"), 1u);
  EXPECT_EQ(metrics.CounterValue("server.jobs.failed"), 0u);
  EXPECT_NE(metrics.FindHistogram("server.job.exec_ns"), nullptr);

  const AnonymizationService::Health health = (*service)->GetHealth();
  EXPECT_EQ(health.done, 1u);
  EXPECT_EQ(health.failed, 0u);
}

TEST_F(ServerTest, ResubmittingAKnownNameDedupes) {
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(BaseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  Result<int64_t> first = (*service)->Submit(Spec("once", SmallStore()));
  ASSERT_TRUE(first.ok()) << first.status();
  Result<int64_t> again = (*service)->Submit(Spec("once", SmallStore()));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *first);
  (*service)->AwaitIdle();
  // And a third time after completion: still the same job, still done.
  Result<int64_t> after = (*service)->Submit(Spec("once", SmallStore()));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, *first);
  EXPECT_EQ((*service)
                ->telemetry()
                .metrics()
                .Snapshot()
                .CounterValue("server.jobs.deduped"),
            2u);
  EXPECT_EQ((*service)->Jobs().size(), 1u);
}

TEST_F(ServerTest, InvalidSubmissionsAreRejectedUpFront) {
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(BaseOptions());
  ASSERT_TRUE(service.ok()) << service.status();

  JobSpec bad_name = Spec("no spaces allowed", SmallStore());
  EXPECT_EQ((*service)->Submit(bad_name).status().code(),
            StatusCode::kInvalidArgument);

  JobSpec missing_store = Spec("ghost", Path("does_not_exist.wst"));
  EXPECT_EQ((*service)->Submit(missing_store).status().code(),
            StatusCode::kInvalidArgument);

  // An empty (but structurally valid) store holds no work to anonymize.
  const std::string empty_path = Path("empty.wst");
  ASSERT_TRUE(store::WriteDatasetStore(Dataset(), empty_path).ok());
  JobSpec empty = Spec("empty", empty_path);
  EXPECT_EQ((*service)->Submit(empty).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ((*service)
                ->telemetry()
                .metrics()
                .Snapshot()
                .CounterValue("server.jobs.invalid"),
            3u);
  EXPECT_TRUE((*service)->Jobs().empty());
}

TEST_F(ServerTest, TenantPolicyFillsUnsetFields) {
  ServiceOptions options = BaseOptions();
  TenantPolicy acme;
  acme.default_k = 3;
  acme.default_delta = 250.0;
  acme.allow_partial_default = true;
  options.tenants["acme"] = acme;
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  JobSpec spec = Spec("acme-job", SmallStore());
  spec.tenant = "acme";
  Result<int64_t> id = (*service)->Submit(spec);
  ASSERT_TRUE(id.ok()) << id.status();
  (*service)->AwaitIdle();

  Result<JobRecord> record = (*service)->GetJob(*id);
  ASSERT_TRUE(record.ok()) << record.status();
  // The admitted record carries the applied policy, so the client can see
  // exactly what (k, delta) its job ran under.
  EXPECT_EQ(record->spec.assign_k, 3);
  EXPECT_EQ(record->spec.assign_delta, 250.0);
  EXPECT_TRUE(record->spec.allow_partial);
  EXPECT_EQ(record->state, JobState::kDone);

  // An unknown tenant gets the (empty) default policy: nothing overridden.
  Result<int64_t> other =
      (*service)->Submit(Spec("other-job", SmallStore()));
  ASSERT_TRUE(other.ok()) << other.status();
  Result<JobRecord> other_record = (*service)->GetJob(*other);
  ASSERT_TRUE(other_record.ok());
  EXPECT_EQ(other_record->spec.assign_k, 0);
  (*service)->AwaitIdle();
}

// ---------------------------------------------------------------------------
// Admission control and backpressure.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, FullQueueRejectsWithExplicitBackpressure) {
  ServiceOptions options = BaseOptions();
  options.queue_capacity = 1;
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();

  ASSERT_TRUE((*service)->Submit(Spec("jam", SlowStore())).ok());
  AwaitRunning(service->get());
  ASSERT_TRUE((*service)->Submit(Spec("queued", SlowStore())).ok());

  Result<int64_t> overflow = (*service)->Submit(Spec("bounced", SmallStore()));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(overflow.status().message().find("capacity"), std::string::npos)
      << overflow.status();
  EXPECT_EQ((*service)
                ->telemetry()
                .metrics()
                .Snapshot()
                .CounterValue("server.jobs.rejected"),
            1u);
  // Rejected means rejected: no ledger record, no job, no output.
  EXPECT_EQ((*service)->Jobs().size(), 2u);

  // Backpressure is transient by design: once the queue drains the same
  // submission is welcome.
  (*service)->AwaitIdle();
  Result<int64_t> retry = (*service)->Submit(Spec("bounced", SmallStore()));
  ASSERT_TRUE(retry.ok()) << retry.status();
  (*service)->AwaitIdle();
  Result<JobRecord> record = (*service)->GetJob(*retry);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, JobState::kDone);
}

TEST_F(ServerTest, AwaitIdleNeverReturnsWhileAJobIsInFlight) {
  // A worker that has just popped a job is neither queued nor running yet;
  // AwaitIdle must still wait for it. The spin between Submit and
  // AwaitIdle sweeps the caller across the worker's wake-up so that some
  // iterations land in the pop-to-claim gap.
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(BaseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  const std::string input = SmallStore();
  for (int i = 0; i < 200; ++i) {
    Result<int64_t> id =
        (*service)->Submit(Spec("idle_" + std::to_string(i), input));
    ASSERT_TRUE(id.ok()) << id.status();
    const auto spin_until = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(i % 50);
    while (std::chrono::steady_clock::now() < spin_until) {
    }
    (*service)->AwaitIdle();
    Result<JobRecord> record = (*service)->GetJob(*id);
    ASSERT_TRUE(record.ok());
    ASSERT_EQ(record->state, JobState::kDone) << "iteration " << i;
  }
}

// ---------------------------------------------------------------------------
// Deadlines and budgets: degrade explicitly or fail closed — never silent
// partial output.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, DeadlineExpiredInQueueFailsClosed) {
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(BaseOptions());
  ASSERT_TRUE(service.ok()) << service.status();

  ASSERT_TRUE((*service)->Submit(Spec("jam", SlowStore())).ok());
  AwaitRunning(service->get());
  // 1 ms deadline, measured from admission: it expires while the job waits
  // behind the jam, so the worker fails it fast instead of running it late.
  JobSpec late = Spec("late", SmallStore());
  late.deadline_ms = 1;
  Result<int64_t> id = (*service)->Submit(late);
  ASSERT_TRUE(id.ok()) << id.status();
  (*service)->AwaitIdle();

  Result<JobRecord> record = (*service)->GetJob(*id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, JobState::kFailed);
  EXPECT_NE(record->outcome.error.find("deadline"), std::string::npos)
      << record->outcome.error;
  // Failing closed: nothing was published under the expired deadline.
  EXPECT_FALSE(std::filesystem::exists(record->spec.output_csv));
  EXPECT_EQ((*service)
                ->telemetry()
                .metrics()
                .Snapshot()
                .CounterValue("server.jobs.deadline_exceeded"),
            1u);
}

TEST_F(ServerTest, BudgetTripFailsClosedWithoutAllowPartial) {
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(BaseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  JobSpec strict = Spec("strict", SmallStore());
  strict.max_distance_computations = 1;  // trips almost immediately
  Result<int64_t> id = (*service)->Submit(strict);
  ASSERT_TRUE(id.ok()) << id.status();
  (*service)->AwaitIdle();

  Result<JobRecord> record = (*service)->GetJob(*id);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->state, JobState::kFailed);
  EXPECT_FALSE(record->outcome.error.empty());
  EXPECT_FALSE(std::filesystem::exists(record->spec.output_csv))
      << "a failed job must not leave output behind";
}

TEST_F(ServerTest, BudgetTripDegradesGracefullyWithAllowPartial) {
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(BaseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  JobSpec partial = Spec("partial", SmallStore());
  partial.max_distance_computations = 1;
  partial.allow_partial = true;
  Result<int64_t> id = (*service)->Submit(partial);
  ASSERT_TRUE(id.ok()) << id.status();
  (*service)->AwaitIdle();

  Result<JobRecord> record = (*service)->GetJob(*id);
  ASSERT_TRUE(record.ok());
  // Graceful degradation is explicit: the job completes, the output is
  // published (verified), and the degradation is flagged with its reason.
  EXPECT_EQ(record->state, JobState::kDone);
  EXPECT_TRUE(record->outcome.degraded);
  EXPECT_FALSE(record->outcome.degraded_reason.empty());
  EXPECT_TRUE(std::filesystem::exists(record->spec.output_csv));
  EXPECT_EQ((*service)
                ->telemetry()
                .metrics()
                .Snapshot()
                .CounterValue("server.jobs.degraded"),
            1u);
}

// ---------------------------------------------------------------------------
// Shutdown and recovery.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, DrainShutdownFinishesQueuedJobs) {
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(BaseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  Result<int64_t> jam = (*service)->Submit(Spec("jam", SlowStore()));
  ASSERT_TRUE(jam.ok());
  AwaitRunning(service->get());
  Result<int64_t> queued = (*service)->Submit(Spec("queued", SmallStore()));
  ASSERT_TRUE(queued.ok());

  (*service)->BeginShutdown(/*drain=*/true);
  // Intake is closed immediately...
  EXPECT_EQ((*service)->Submit(Spec("toolate", SmallStore())).status().code(),
            StatusCode::kFailedPrecondition);
  // ...but everything already accepted completes.
  (*service)->AwaitTermination();
  EXPECT_EQ((*service)->GetJob(*jam)->state, JobState::kDone);
  EXPECT_EQ((*service)->GetJob(*queued)->state, JobState::kDone);
}

TEST_F(ServerTest, ImmediateShutdownRequeuesAndRestartRecovers) {
  const std::string slow = SlowStore();
  const std::string small = SmallStore();
  ServiceOptions options = BaseOptions();
  int64_t jam_id = 0;
  {
    Result<std::unique_ptr<AnonymizationService>> service =
        AnonymizationService::Start(options);
    ASSERT_TRUE(service.ok()) << service.status();
    Result<int64_t> jam = (*service)->Submit(Spec("jam", slow));
    ASSERT_TRUE(jam.ok());
    jam_id = *jam;
    AwaitRunning(service->get());
    ASSERT_TRUE((*service)->Submit(Spec("q1", small)).ok());
    ASSERT_TRUE((*service)->Submit(Spec("q2", small)).ok());
    // Immediate shutdown: the running job trips on the cancellation token,
    // flushes its shard checkpoints, and is requeued; q1/q2 never start.
    (*service)->BeginShutdown(/*drain=*/false);
    (*service)->AwaitTermination();
    // Nothing may have been published during teardown.
    EXPECT_FALSE(
        std::filesystem::exists(options.job_dir + "/out/jam.csv"));
  }

  // A new life on the same job_dir finds all three in the ledger and runs
  // them to completion.
  Result<std::unique_ptr<AnonymizationService>> revived =
      AnonymizationService::Start(options);
  ASSERT_TRUE(revived.ok()) << revived.status();
  EXPECT_GE((*revived)->recovered_jobs(), 2u);
  EXPECT_EQ((*revived)->GetHealth().recovered, (*revived)->recovered_jobs());
  (*revived)->AwaitIdle();
  for (const JobRecord& record : (*revived)->Jobs()) {
    EXPECT_EQ(record.state, JobState::kDone) << record.spec.name;
    EXPECT_TRUE(std::filesystem::exists(record.spec.output_csv))
        << record.spec.name;
  }
  // The jammed job survived its interrupted first life.
  Result<JobRecord> jam = (*revived)->GetJob(jam_id);
  ASSERT_TRUE(jam.ok());
  EXPECT_EQ(jam->spec.name, "jam");
  EXPECT_GE(jam->attempts, 1u);
}

// ---------------------------------------------------------------------------
// The HTTP endpoint and client, over a real unix socket.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, EndpointServesJobsHealthAndMetrics) {
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(BaseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  HttpServer::Options http;
  http.socket_path = Path("wcop.sock");
  Result<std::unique_ptr<ServiceEndpoint>> endpoint =
      ServiceEndpoint::Attach(service->get(), http);
  ASSERT_TRUE(endpoint.ok()) << endpoint.status();

  const ServiceClient client(http.socket_path);
  Result<std::string> health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->rfind("ok\n", 0), 0u) << *health;
  EXPECT_NE(health->find("queue_capacity 8"), std::string::npos) << *health;

  JobSpec spec = Spec("via-http", SmallStore());
  Result<JobRecord> submitted = client.Submit(spec);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  EXPECT_GT(submitted->id, 0);
  Result<JobRecord> finished =
      client.WaitForJob(submitted->id, std::chrono::seconds(60));
  ASSERT_TRUE(finished.ok()) << finished.status();
  EXPECT_EQ(finished->state, JobState::kDone);
  EXPECT_GT(finished->outcome.published, 0u);
  EXPECT_TRUE(std::filesystem::exists(finished->spec.output_csv));

  // Transport error mapping: unknown job -> 404 -> kNotFound; invalid spec
  // -> 400 -> kInvalidArgument.
  EXPECT_EQ(client.GetJob(424242).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.Submit(Spec("bad name", SmallStore())).status().code(),
            StatusCode::kInvalidArgument);

  // Default /metrics speaks Prometheus text exposition 0.0.4: typed
  // families, _total counters, cumulative histogram series, and the
  // process collector's gauges.
  Result<std::string> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("# TYPE wcop_server_jobs_accepted_total counter"),
            std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("wcop_server_jobs_accepted_total 1"),
            std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("wcop_server_job_exec_ns_bucket{le=\"+Inf\"}"),
            std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("wcop_server_job_exec_ns_count"),
            std::string::npos)
      << *metrics;
#ifdef __linux__
  EXPECT_NE(metrics->find("process_resident_memory_bytes"),
            std::string::npos)
      << *metrics;
#endif

  // The pre-Prometheus human-readable dump survives under ?format=text.
  Result<std::string> legacy = client.Metrics(/*legacy_format=*/true);
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_NE(legacy->find("counter server.jobs.accepted 1"),
            std::string::npos)
      << *legacy;
  EXPECT_NE(legacy->find("histogram server.job.exec_ns"), std::string::npos)
      << *legacy;

  // GET /jobs lists every record the service knows about.
  Result<std::vector<JobRecord>> listed = client.ListJobs();
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].spec.name, "via-http");
  EXPECT_EQ((*listed)[0].state, JobState::kDone);

  // POST /shutdown flips the flags the daemon's main loop polls.
  EXPECT_FALSE((*endpoint)->shutdown_requested());
  ASSERT_TRUE(client.Shutdown(/*drain=*/true).ok());
  EXPECT_TRUE((*endpoint)->shutdown_requested());
  EXPECT_TRUE((*endpoint)->drain_requested());

  (*endpoint)->Stop();
  (*service)->BeginShutdown(/*drain=*/true);
  (*service)->AwaitTermination();
}

// The PR-7 acceptance path: a 4-shard job submitted over HTTP exposes a
// monotone live progress sequence while running, and once done serves a
// Chrome trace JSON whose spans carry the job's trace id and come from at
// least two distinct shard lanes (pid = 2 + shard_index; coordinator = 1).
TEST_F(ServerTest, EndpointServesLiveProgressAndTrace) {
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(BaseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  HttpServer::Options http;
  http.socket_path = Path("wcop.sock");
  Result<std::unique_ptr<ServiceEndpoint>> endpoint =
      ServiceEndpoint::Attach(service->get(), http);
  ASSERT_TRUE(endpoint.ok()) << endpoint.status();
  const ServiceClient client(http.socket_path);

  JobSpec spec = Spec("tiled", TiledStore());
  spec.shards = 4;
  Result<JobRecord> submitted = client.Submit(spec);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  // The trace identity exists from admission...
  EXPECT_EQ(submitted->trace_id.rfind("wcop-job-", 0), 0u)
      << submitted->trace_id;
  // ...but the span buffer does not: 404 until the job has executed, and
  // for jobs that never existed.
  EXPECT_EQ(client.Trace(submitted->id).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.Trace(424242).status().code(), StatusCode::kNotFound);

  // Poll the live record to completion, collecting the progress sequence.
  std::vector<uint64_t> done_seq;
  JobRecord final_record;
  for (int i = 0; i < 60000; ++i) {
    Result<JobRecord> record = client.GetJob(submitted->id);
    ASSERT_TRUE(record.ok()) << record.status();
    done_seq.push_back(record->progress.shards_done);
    if (record->state == JobState::kDone ||
        record->state == JobState::kFailed) {
      final_record = *record;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(final_record.state, JobState::kDone)
      << final_record.outcome.error;
  for (size_t i = 1; i < done_seq.size(); ++i) {
    EXPECT_GE(done_seq[i], done_seq[i - 1]) << "progress went backwards";
  }
  EXPECT_EQ(final_record.progress.shards_total, 4u);
  EXPECT_EQ(final_record.progress.shards_done, 4u);
  EXPECT_GT(final_record.progress.distance_calls, 0u);

  // The persisted trace is one merged timeline under the job's trace id.
  Result<std::string> trace = client.Trace(submitted->id);
  ASSERT_TRUE(trace.ok()) << trace.status();
  ASSERT_FALSE(trace->empty());
  EXPECT_EQ(trace->front(), '{') << *trace;
  EXPECT_NE(trace->find("\"traceEvents\":["), std::string::npos) << *trace;
  EXPECT_NE(
      trace->find("\"traceId\":\"" + final_record.trace_id + "\""),
      std::string::npos)
      << *trace;
  std::set<int> shard_pids;
  for (size_t pos = trace->find("\"pid\":"); pos != std::string::npos;
       pos = trace->find("\"pid\":", pos + 1)) {
    const int pid =
        std::atoi(trace->c_str() + pos + sizeof("\"pid\":") - 1);
    if (pid >= 2) {
      shard_pids.insert(pid);
    }
  }
  EXPECT_GE(shard_pids.size(), 2u)
      << "expected spans from >= 2 shard lanes: " << *trace;

  (*endpoint)->Stop();
  (*service)->BeginShutdown(/*drain=*/true);
  (*service)->AwaitTermination();
}

TEST_F(ServerTest, EndpointSurfacesBackpressureAs429) {
  ServiceOptions options = BaseOptions();
  options.queue_capacity = 1;
  Result<std::unique_ptr<AnonymizationService>> service =
      AnonymizationService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();
  HttpServer::Options http;
  http.socket_path = Path("wcop.sock");
  Result<std::unique_ptr<ServiceEndpoint>> endpoint =
      ServiceEndpoint::Attach(service->get(), http);
  ASSERT_TRUE(endpoint.ok()) << endpoint.status();
  const ServiceClient client(http.socket_path);

  ASSERT_TRUE(client.Submit(Spec("jam", SlowStore())).ok());
  AwaitRunning(service->get());
  ASSERT_TRUE(client.Submit(Spec("queued", SlowStore())).ok());
  Result<JobRecord> bounced = client.Submit(Spec("bounced", SmallStore()));
  ASSERT_FALSE(bounced.ok());
  // 429 over the wire comes back as kResourceExhausted — the client-side
  // half of the backpressure contract.
  EXPECT_EQ(bounced.status().code(), StatusCode::kResourceExhausted);

  (*endpoint)->Stop();
  (*service)->BeginShutdown(/*drain=*/true);
  (*service)->AwaitTermination();
}

// ---------------------------------------------------------------------------
// Pure mapping units (no sockets, no service).
// ---------------------------------------------------------------------------

TEST(EndpointMappingTest, StatusToHttpAndBack) {
  EXPECT_EQ(HttpStatusForStatus(Status::OK()), 200);
  EXPECT_EQ(HttpStatusForStatus(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusForStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpStatusForStatus(Status::ResourceExhausted("x")), 429);
  EXPECT_EQ(HttpStatusForStatus(Status::FailedPrecondition("x")), 503);
  EXPECT_EQ(HttpStatusForStatus(Status::Internal("x")), 500);

  HttpResponse response;
  response.status = 429;
  response.body = "queue full\n";
  const Status back = StatusForHttpResponse(response);
  EXPECT_EQ(back.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(back.message(), "queue full");
  response.status = 200;
  EXPECT_TRUE(StatusForHttpResponse(response).ok());
  response.status = 500;
  EXPECT_EQ(StatusForHttpResponse(response).code(), StatusCode::kInternal);
}

TEST(EndpointMappingTest, FormatMetricsEmitsOneLinePerMetric) {
  telemetry::MetricsRegistry registry;
  registry.GetCounter("server.jobs.accepted")->Add(3);
  registry.GetGauge("server.queue.depth")->Set(2.5);
  registry.GetHistogram("server.job.exec_ns")->Record(1000);
  const std::string text = FormatMetrics(registry.Snapshot());
  EXPECT_NE(text.find("counter server.jobs.accepted 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gauge server.queue.depth 2.5\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("histogram server.job.exec_ns count=1 sum=1000"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace server
}  // namespace wcop
