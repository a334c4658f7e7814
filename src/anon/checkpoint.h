#ifndef WCOP_ANON_CHECKPOINT_H_
#define WCOP_ANON_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "anon/types.h"
#include "anon/wcop_b.h"
#include "common/fnv1a.h"
#include "common/number_codec.h"
#include "common/result.h"
#include "traj/dataset.h"

namespace wcop {

/// Resumable driver state (DESIGN.md "Crash recovery & checkpointing").
///
/// Two drivers keep resumable state for the same AnonymizationResult:
/// WCOP-B's edit-and-re-anonymize loop (the payload below) and the shard
/// runner (store/shard_runner.cc, one checkpoint per completed shard). Both
/// persist through the atomic snapshot layer (common/snapshot.h) and share
/// one codec for the result, one for the counter list, one fixed-width
/// trailer and one fingerprint hash, all declared here. A restarted run
/// decodes its checkpoint, verifies the config fingerprint, and continues
/// from there (the continuous pipeline's window manifests borrow only the
/// fingerprints).
///
/// The encoding is plain deterministic text in the common/number_codec.h
/// token spelling (exact round-trip; legacy %.17g payloads still decode),
/// so a resumed run reproduces the uninterrupted run byte-for-byte.
/// Integrity is the snapshot envelope's job (CRC32); decode failures on a
/// validated payload therefore still report kDataLoss and callers treat
/// them like a corrupt file.

using CounterList = std::vector<std::pair<std::string, uint64_t>>;

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
  CounterList counters;
};

std::string EncodeWcopBCheckpoint(const WcopBCheckpoint& checkpoint);
Result<WcopBCheckpoint> DecodeWcopBCheckpoint(std::string_view payload);

/// Snapshot format version of the payload above.
inline constexpr uint32_t kWcopBCheckpointVersion = 1;

/// Order- and content-sensitive fingerprint of the dataset (ids, metadata,
/// requirements, every point's bit pattern). FNV-1a (common/fnv1a.h),
/// stable across runs and platforms.
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

/// Feeds the determinism-relevant WcopOptions fields into `h`: the one
/// list of them, behind every fingerprint above and the shard runner's.
void HashWcopOptions(Fnv1a* h, const WcopOptions& options);

// ---------------------------------------------------------------------------
// The shared payload pieces. Readers return kDataLoss on malformed input.
// ---------------------------------------------------------------------------

/// Published trajectories (the store text record, store/store_file.h),
/// trash ids, clusters and the report without its metrics snapshot:
///   ntraj <n>\n            then n trajectory records
///   ntrashed <n> <id>...\n
///   nclusters <n>\n        then n lines "cluster <pivot> <k> <delta> <m>
///                          <member>..."
///   report <scalar fields> <degraded> <degraded_reason blob>\n
void AppendAnonymizationResult(std::string* out,
                               const AnonymizationResult& result);
Status ReadAnonymizationResult(codec::TokenScanner* in,
                               AnonymizationResult* result);

/// "ncounters <n>\n" then n lines "counter <name blob> <value>".
void AppendCounters(std::string* out, const CounterList& counters);
Status ReadCounters(codec::TokenScanner* in, CounterList* counters);

/// Fixed-width trailer "end <020-digit total>\n" carrying the payload's
/// final byte count (trailer included). Tokenized text cannot otherwise
/// notice losing trailing bytes (only the final newline, say), so the
/// decoder checks the recorded total against the bytes it was handed.
void AppendEndMarker(std::string* out);
Status CheckEndMarker(codec::TokenScanner* in, size_t payload_size);

}  // namespace wcop

#endif  // WCOP_ANON_CHECKPOINT_H_
