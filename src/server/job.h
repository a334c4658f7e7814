#ifndef WCOP_SERVER_JOB_H_
#define WCOP_SERVER_JOB_H_

/// Job model of the anonymization service: what a client submits (JobSpec),
/// what the service tracks (JobRecord = spec + lifecycle state + outcome),
/// and the text codec that makes records durable inside the common/snapshot
/// envelope and portable over the HTTP endpoint.
///
/// Lifecycle (DESIGN.md "Service operation & fault tolerance"):
///
///   queued ──► running ──► done
///                 │  └────► failed
///                 └────────► queued   (requeued by a non-drain shutdown)
///
/// Every transition is persisted by the job ledger *before* the service
/// acts on it, so after a kill -9 the ledger names every accepted job and
/// the worst a crash can do is repeat work — never lose it and never
/// publish it twice (output publication is an atomic rename).
///
/// Codec: one "key value" pair per line; string values are percent-escaped
/// so paths and error messages with spaces/newlines round-trip; numbers use
/// common/number_codec.h (shortest round-trip doubles, bit-exact; legacy
/// %.17g records still parse), like the store blocks and checkpoint
/// payloads. Unknown keys are skipped
/// on decode, so old binaries read records written by newer ones.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace wcop {
namespace server {

/// Record format version carried in the snapshot envelope.
inline constexpr uint32_t kJobRecordVersion = 1;

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,
};

std::string_view JobStateName(JobState state);
Result<JobState> JobStateFromName(std::string_view name);

/// What a client submits. `name` doubles as the idempotency key: a resubmit
/// with an already-known name returns the existing job instead of queueing
/// a duplicate, which makes retrying a submission after a crash safe.
struct JobSpec {
  std::string name;         ///< required; [A-Za-z0-9._-], idempotency key
  std::string tenant;       ///< selects the per-tenant policy defaults
  std::string input_store;  ///< required; path to a .wst trajectory store
  std::string output_csv;   ///< batch: empty = `<job_dir>/out/<name>.csv`

  /// Job kind: "" or "batch" = one-shot batch anonymization publishing a
  /// CSV; "continuous" = the windowed continuous-publication pipeline
  /// (pipeline/continuous.h), publishing per-window stores + manifests
  /// under `output_dir`; "audit" = the privacy red team (attack/audit.h),
  /// publishing an AuditReport JSON. A crash-recovered continuous job
  /// resumes into its own published windows instead of recomputing them.
  std::string kind;
  double window_seconds = 3600.0;  ///< continuous only: window width
  std::string output_dir;  ///< continuous: empty = `<job_dir>/out/<name>.windows`

  /// Audit jobs. Single-release mode: `input_store` is the *published*
  /// store under audit and `audit_original_store` optionally names the
  /// pre-publication source (enables the re-identification attack).
  /// Continuous mode: `audit_windows_dir` names a continuous-publication
  /// output directory (window_NNNNN.wst) and `input_store` is the source
  /// store the windows were published from.
  std::string audit_windows_dir;
  std::string audit_original_store;
  std::string audit_adversary;   ///< "", "weak", "moderate", "strong"
  uint64_t audit_victims = 0;    ///< victim / user cap (0 = everyone)

  /// Requirement override: > 0 replaces every trajectory's (k, delta) with
  /// this pair before anonymization (materialized as a derived job store).
  /// 0 = keep the dataset-embedded requirements, after tenant defaults.
  int assign_k = 0;
  double assign_delta = 0.0;

  size_t shards = 1;          ///< sharded pipeline width
  double overlap_margin = 0.0;
  int64_t deadline_ms = 0;    ///< per-job deadline; 0 = tenant default
  uint64_t max_distance_computations = 0;  ///< budget slice; 0 = tenant
  bool allow_partial = false;  ///< graceful degradation under pressure
  uint64_t seed = 7;
};

/// What execution produced. Populated for done jobs; `error` for failed.
/// Continuous jobs reuse the same fields window-wise: `published` /
/// `suppressed` / `clusters` total over all windows, and `resumed_shards`
/// counts verified-and-adopted windows.
struct JobOutcome {
  bool degraded = false;
  std::string degraded_reason;
  bool verified = false;       ///< every shard passed the anonymity audit
  uint64_t published = 0;      ///< trajectories written to output_csv
  uint64_t suppressed = 0;
  uint64_t clusters = 0;
  double total_distortion = 0.0;
  uint64_t resumed_shards = 0;  ///< shards restored from checkpoints
  std::string error;            ///< final Status string when state=failed
};

/// Live execution progress, updated in place by the running worker (from
/// the shard runner's progress callbacks) and surfaced by GET /jobs/<id>.
/// Persisted with the record at lifecycle transitions; between transitions
/// it is only as fresh as the in-memory record — after a crash-recovery
/// the progress of a requeued job legitimately resets to zero.
struct JobProgress {
  uint64_t shards_done = 0;
  uint64_t shards_total = 0;
  uint64_t distance_calls = 0;
  double eta_seconds = 0.0;  ///< elapsed/done * remaining; 0 until known
};

struct JobRecord {
  int64_t id = 0;
  JobState state = JobState::kQueued;
  /// Times execution was claimed (1 = clean run; > 1 = crash-resumed).
  uint64_t attempts = 0;
  /// Trace identity minted at admission (DESIGN.md §7); correlates the
  /// record, the persisted span buffer (GET /jobs/<id>/trace) and every
  /// log line the job produced.
  std::string trace_id;
  JobSpec spec;
  JobOutcome outcome;
  JobProgress progress;
};

/// Percent-escapes whitespace, '%', and non-printable bytes so any string
/// survives the line-oriented codec. Exposed for the HTTP form codec.
std::string EscapeToken(std::string_view raw);
Result<std::string> UnescapeToken(std::string_view token);

std::string EncodeJobRecord(const JobRecord& record);
Result<JobRecord> DecodeJobRecord(std::string_view payload);

/// Spec-only codec for the POST /jobs request body (same key/value lines
/// as the record codec, spec fields only).
std::string EncodeJobSpec(const JobSpec& spec);
Result<JobSpec> DecodeJobSpec(std::string_view body);

/// Validates client-controlled spec fields (name charset, ranges). Does
/// not touch the filesystem; the service checks the input store separately.
Status ValidateJobSpec(const JobSpec& spec);

}  // namespace server
}  // namespace wcop

#endif  // WCOP_SERVER_JOB_H_
