#ifndef WCOP_PIPELINE_MANIFEST_H_
#define WCOP_PIPELINE_MANIFEST_H_

/// Per-window manifest records — the durable commit log of the continuous
/// publication pipeline (DESIGN.md "Continuous publication pipeline").
///
/// A window is published in two steps: its output store is atomically
/// finished at `window_NNNNN.wst`, then a manifest record is atomically
/// written at `window_NNNNN.mfr` (snapshot envelope: magic, version,
/// payload CRC). The manifest is the commit point. On restart the pipeline
/// replays manifests from window 0; the first missing or invalid record —
/// bad envelope, fingerprint mismatch, or an output/carry store whose bytes
/// no longer match the recorded CRC — marks the window to recompute.
/// Because every window is deterministic given the source store, the
/// options, and the carry-over chain, recomputation rewrites byte-identical
/// stores over any torn leftovers, which is what makes `kill -9` at any
/// lifecycle point recoverable to byte-identical published output.
///
/// The payload is the whitespace text codec used by the shard checkpoint
/// (common/number_codec.h: shortest round-trip doubles, and legacy %.17g
/// spellings still parse) and carries no timestamps or paths,
/// so manifests themselves are byte-identical across interrupted and
/// uninterrupted runs.

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/retry.h"

namespace wcop {
namespace pipeline {

/// Snapshot-envelope format_version for window manifest records.
inline constexpr uint32_t kWindowManifestVersion = 1;

struct WindowManifest {
  uint64_t config_fingerprint = 0;  ///< source index + pipeline options
  uint64_t window_index = 0;
  double window_start = 0.0;
  double window_end = 0.0;

  uint64_t input_fragments = 0;   ///< fragments fed to the anonymizer
  uint64_t published_fragments = 0;
  uint64_t suppressed_delta = 0;  ///< fragments this window suppressed
  uint64_t carried_in = 0;        ///< carry records merged from window-1
  uint64_t carried_out = 0;       ///< carry records spilled to window+1
  uint64_t clusters = 0;
  double ttd = 0.0;
  bool skipped = false;   ///< window unsatisfiable -> fully suppressed
  bool degraded = false;  ///< per-window anonymization degraded

  int64_t next_fragment_id = 0;  ///< first id unused after this window

  uint64_t input_crc = 0;  ///< CRC32/size of the window input store file
  uint64_t input_size = 0;
  uint64_t output_crc = 0;  ///< CRC32/size of the published output store
  uint64_t output_size = 0;
  uint64_t carry_crc = 0;  ///< CRC32/size of the carry-over store
  uint64_t carry_size = 0;
};

/// Text payload codec (deterministic; no timestamps, no paths).
std::string EncodeWindowManifest(const WindowManifest& manifest);
Result<WindowManifest> DecodeWindowManifest(std::string_view payload);

/// Atomic read/write through the snapshot envelope. Write failures leave
/// any previous record intact; reads return kNotFound / kDataLoss exactly
/// like ReadSnapshotFile.
Status WriteWindowManifest(const std::string& path,
                           const WindowManifest& manifest,
                           const RetryPolicy* retry = nullptr);
Result<WindowManifest> ReadWindowManifest(const std::string& path);

/// CRC32 and size of a whole file's bytes — the manifest's store
/// fingerprints. kNotFound when the file does not exist.
struct FileDigest {
  uint64_t crc = 0;
  uint64_t size = 0;
};
Result<FileDigest> DigestFile(const std::string& path);

}  // namespace pipeline
}  // namespace wcop

#endif  // WCOP_PIPELINE_MANIFEST_H_
