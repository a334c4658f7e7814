#ifndef WCOP_ANON_CHECKPOINT_H_
#define WCOP_ANON_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "anon/types.h"
#include "anon/wcop_b.h"
#include "common/result.h"
#include "traj/dataset.h"

namespace wcop {

/// Resumable driver state (DESIGN.md "Crash recovery & checkpointing").
///
/// WCOP-B's repeated edit-and-re-anonymize loop periodically encodes its
/// completed rounds into the checkpoint struct below and persists it
/// through the atomic snapshot layer (common/snapshot.h). A restarted run
/// decodes the checkpoint, verifies the config fingerprint, splices the
/// completed rounds back in, and continues from the first uncompleted one.
/// (The continuous pipeline and the shard runner keep their own durable
/// state; they borrow only the fingerprints declared here.)
///
/// The encoding is plain deterministic text with numbers in the
/// common/number_codec.h spelling (exact round-trip; legacy %.17g payloads
/// still decode), so a resumed run reproduces the uninterrupted
/// run byte-for-byte. Integrity is the snapshot envelope's job (CRC32);
/// decode failures on a validated payload therefore still report kDataLoss
/// and callers treat them like a corrupt file.

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

/// Snapshot format version of the payload above.
inline constexpr uint32_t kWcopBCheckpointVersion = 1;

/// Order- and content-sensitive fingerprint of the dataset (ids, metadata,
/// requirements, every point's bit pattern). FNV-1a, stable across runs and
/// platforms of equal endianness.
uint64_t DatasetFingerprint(const Dataset& dataset);

/// Fingerprint of everything that must match for a WCOP-B checkpoint to be
/// resumable: the dataset plus the clustering options plus the editing
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
