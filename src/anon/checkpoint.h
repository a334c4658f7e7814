#ifndef WCOP_ANON_CHECKPOINT_H_
#define WCOP_ANON_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "anon/streaming.h"
#include "anon/types.h"
#include "anon/wcop_b.h"
#include "common/result.h"
#include "traj/dataset.h"

namespace wcop {

/// Resumable driver state (DESIGN.md "Crash recovery & checkpointing").
///
/// The two long-running drivers — windowed streaming publication and
/// WCOP-B's repeated edit-and-re-anonymize loop — periodically encode their
/// completed work into one of the checkpoint structs below and persist it
/// through the atomic snapshot layer (common/snapshot.h). A restarted run
/// decodes the checkpoint, verifies the config fingerprint, splices the
/// completed work back in, and continues from the first uncompleted unit.
///
/// Both encodings are plain deterministic text with numbers in the
/// common/number_codec.h spelling (exact round-trip; legacy %.17g payloads
/// still decode), so a resumed run reproduces the uninterrupted
/// run byte-for-byte. Integrity is the snapshot envelope's job (CRC32);
/// decode failures on a validated payload therefore still report kDataLoss
/// and callers treat them like a corrupt file.

/// Streaming driver state after a whole number of completed windows.
struct StreamingCheckpoint {
  uint64_t fingerprint = 0;  ///< StreamingConfigFingerprint at write time
  size_t windows_done = 0;   ///< loop resumes at window index windows_done
  int64_t next_fragment_id = 0;
  size_t suppressed_fragments = 0;
  size_t total_clusters = 0;
  double total_ttd = 0.0;
  bool degraded = false;
  std::string degraded_reason;
  std::vector<StreamingWindowSummary> windows;
  std::vector<Trajectory> published;  ///< sanitized fragments so far
  /// Counter snapshot of the attached telemetry sink, spliced back into the
  /// resumed run's sink so end-of-run metrics cover the whole logical run.
  std::vector<std::pair<std::string, uint64_t>> counters;
};

std::string EncodeStreamingCheckpoint(const StreamingCheckpoint& checkpoint);
Result<StreamingCheckpoint> DecodeStreamingCheckpoint(std::string_view payload);

/// WCOP-B driver state after a completed edit-and-re-anonymize round.
/// Carries the full last round result: when the checkpoint is terminal
/// (bound satisfied / editing exhausted / degraded trip) a restart returns
/// it directly instead of recomputing anything.
struct WcopBCheckpoint {
  uint64_t fingerprint = 0;  ///< WcopBConfigFingerprint at write time
  size_t next_edit_size = 0;
  bool terminal = false;
  bool bound_satisfied = false;
  size_t final_edit_size = 0;
  std::vector<WcopBRound> rounds;
  AnonymizationResult anonymization;  ///< last completed round's output
  std::vector<std::pair<std::string, uint64_t>> counters;
};

std::string EncodeWcopBCheckpoint(const WcopBCheckpoint& checkpoint);
Result<WcopBCheckpoint> DecodeWcopBCheckpoint(std::string_view payload);

/// Snapshot format versions for the two payloads above.
inline constexpr uint32_t kStreamingCheckpointVersion = 1;
inline constexpr uint32_t kWcopBCheckpointVersion = 1;

/// Order- and content-sensitive fingerprint of the dataset (ids, metadata,
/// requirements, every point's bit pattern). FNV-1a, stable across runs and
/// platforms of equal endianness.
uint64_t DatasetFingerprint(const Dataset& dataset);

/// Fingerprint of everything that must match for a streaming checkpoint to
/// be resumable: the dataset plus the options that shape the window
/// partition and the per-window anonymization.
uint64_t StreamingConfigFingerprint(const Dataset& dataset,
                                    const StreamingOptions& options);

/// Ditto for WCOP-B: dataset plus clustering options plus the editing
/// schedule parameters.
uint64_t WcopBConfigFingerprint(const Dataset& dataset,
                                const WcopOptions& options,
                                const WcopBOptions& b_options);

/// Fingerprint of the determinism-relevant WcopOptions fields alone
/// (threads and observability sinks excluded — they never change published
/// bytes). Building block for config fingerprints that hash their dataset
/// some other way, e.g. the continuous pipeline's store-index fingerprint.
uint64_t WcopOptionsFingerprint(const WcopOptions& options);

}  // namespace wcop

#endif  // WCOP_ANON_CHECKPOINT_H_
