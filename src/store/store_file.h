#ifndef WCOP_STORE_STORE_FILE_H_
#define WCOP_STORE_STORE_FILE_H_

/// Out-of-core trajectory store — the on-disk substrate of the sharded
/// anonymization pipeline (DESIGN.md "Dataset store & sharding").
///
/// A store file holds one trajectory per block plus a metadata-rich index,
/// so a reader can partition or randomly access a multi-gigabyte dataset
/// without ever materializing it. Layout (all integers little-endian, all
/// doubles raw IEEE-754 bits, little-endian):
///
///   [0..8)    magic "WCOPSTR1"
///   [8..12)   format version (u32): 2 from this build, 1 still read
///   [12..16)  reserved (u32, zero)
///   blocks    one per trajectory, appended in write order:
///               u32 payload_size | u32 crc32(payload) | payload
///             version 2 payload (AppendBinaryTrajectoryRecord()):
///               48-byte header: id, object_id, parent_id, k (i64 each),
///               delta (f64), n (u64); then n * (x, y, t) as f64, so
///               payload_size is exactly 48 + 24 * n.
///             version 1 payload (read-only): the text record of
///               AppendTrajectoryRecord(), "traj <id> <object_id>
///               <parent_id> <k> <delta> <n>\n" then n lines "<x> <y> <t>\n"
///               in the common/number_codec.h spelling (older builds wrote
///               %.17g; both parse to the same bits).
///   index     "WCOPSIDX" | u64 count | count * 104-byte entries | u32 crc
///             each entry: id, offset, block_size, num_points (8 bytes
///             each), then k, delta, MBR min_x/min_y/max_x/max_y,
///             t_min, t_max as raw 8-byte values. The index alone carries
///             everything the spatio-temporal partitioner needs.
///   footer    u64 index_offset | magic "WCOPSEND"   (last 16 bytes)
///
/// Corruption anywhere (bit flip, truncation, torn write) surfaces as
/// kDataLoss — per-block CRCs mean a damaged block never yields a torn
/// trajectory, and undamaged blocks stay readable. Writes go to
/// `<path>.tmp` and rename into place on Finish(), matching the
/// common/snapshot atomicity conventions.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/artifact_registry.h"
#include "common/number_codec.h"
#include "common/result.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "traj/dataset.h"
#include "traj/trajectory.h"

namespace wcop {
namespace store {

/// Store file format version written by this build. Readers also accept
/// version 1 (text block payloads).
inline constexpr uint32_t kStoreFormatVersion = 2;

/// One index row: everything the partitioner and the random-access reader
/// need to know about a trajectory without touching its block.
struct StoreEntry {
  int64_t id = 0;
  uint64_t offset = 0;      ///< file offset of the block header
  uint64_t block_size = 0;  ///< 8-byte block header + payload
  uint64_t num_points = 0;
  int64_t k = 2;            ///< privacy requirement k_i
  double delta = 0.0;       ///< quality requirement delta_i (metres)
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;  ///< MBR
  double t_min = 0.0, t_max = 0.0;  ///< trajectory lifetime
};

/// Appends the lossless, self-delimiting text record of `t` to `*out`: the
/// trajectory record of the checkpoint result codec (anon/checkpoint.h),
/// and the block payload of version-1 stores (which this build reads but
/// no longer writes).
void AppendTrajectoryRecord(std::string* out, const Trajectory& t);

/// Parses one text record starting at `*pos` in `payload`; advances `*pos`
/// past it. Returns kDataLoss on any malformed content.
Result<Trajectory> ParseTrajectoryRecord(std::string_view payload,
                                         size_t* pos);
/// The same, as the next tokens of a larger text payload.
Result<Trajectory> ParseTrajectoryRecord(codec::TokenScanner* scan);

/// Appends the version-2 block payload of `t` to `*out`: the 48-byte header
/// and the raw point doubles of the layout above.
void AppendBinaryTrajectoryRecord(std::string* out, const Trajectory& t);

/// Decodes a version-2 block payload; the whole of `payload` must be one
/// record. Returns kDataLoss when it is shorter than the header, when its
/// size is not 48 + 24 * n, or when k does not fit an int.
Result<Trajectory> ParseBinaryTrajectoryRecord(std::string_view payload);

/// Streaming store writer: Append() trajectories one at a time (nothing but
/// the index row is retained in memory), then Finish() writes the index and
/// footer and atomically renames the file into place. An unfinished writer
/// removes its temp file on destruction, so a crash or early error never
/// leaves a partial store at the target path.
class TrajectoryStoreWriter {
 public:
  static Result<TrajectoryStoreWriter> Create(const std::string& path);

  TrajectoryStoreWriter(TrajectoryStoreWriter&&) = default;
  TrajectoryStoreWriter& operator=(TrajectoryStoreWriter&&) = default;
  ~TrajectoryStoreWriter();

  /// Validates and appends one trajectory block.
  Status Append(const Trajectory& t);

  /// Writes index + footer, fsyncs, and renames `<path>.tmp` -> `path`.
  /// The writer is closed afterwards regardless of the outcome.
  Status Finish();

  size_t trajectories_written() const { return index_.size(); }
  const std::string& path() const { return path_; }

 private:
  TrajectoryStoreWriter() = default;

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f != nullptr) {
        std::fclose(f);
      }
    }
  };

  std::string path_;
  std::string tmp_path_;
  // Marks the temp file live for the duration of the write so a concurrent
  // stale-artifact sweep never reclaims it from under the writer.
  ScopedLiveArtifact live_tmp_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::vector<StoreEntry> index_;
  std::string block_;  // reused encode buffer: block header + payload
  uint64_t offset_ = 0;
  bool finished_ = false;
};

/// Random-access store reader. Open() loads and verifies only the header
/// and the index; trajectory blocks are read (and CRC-checked) on demand,
/// so memory stays proportional to the index, not the dataset. Both format
/// versions are read; the one found at Open() picks the block decoder. All
/// Read* methods are thread-safe: each block is one positioned read
/// (pread(2)) on a shared descriptor, with no lock.
class TrajectoryStoreReader {
 public:
  static Result<TrajectoryStoreReader> Open(const std::string& path);

  size_t size() const { return index_.size(); }
  const std::vector<StoreEntry>& index() const { return index_; }
  const std::string& path() const { return path_; }
  uint64_t total_points() const { return total_points_; }

  /// Reads the trajectory at index position `i` (write order).
  Result<Trajectory> Read(size_t i) const;

  /// Random access by trajectory id; kNotFound when absent.
  Result<Trajectory> ReadById(int64_t id) const;

  /// Materializes the whole store (the monolithic path). Polls `context`
  /// every few hundred blocks.
  Result<Dataset> ReadAll(const RunContext* context = nullptr) const;

  /// Materializes the trajectories at index positions `positions`, in that
  /// order — the sharded pipeline's per-shard view of the store. Same
  /// CRC/kDataLoss checks and `context` polling as ReadAll().
  Result<Dataset> ReadSubset(const std::vector<size_t>& positions,
                             const RunContext* context = nullptr) const;

 private:
  TrajectoryStoreReader() = default;

  // Owns the read-only descriptor; move-only, so the reader stays movable
  // (Result<T> requires it).
  struct Fd {
    int fd = -1;
    Fd() = default;
    Fd(Fd&& other) noexcept;
    Fd& operator=(Fd&& other) noexcept;
    ~Fd();
  };

  std::string path_;
  Fd fd_;
  uint32_t version_ = 0;
  std::vector<StoreEntry> index_;
  std::unordered_map<int64_t, size_t> by_id_;
  uint64_t total_points_ = 0;
};

/// Writes every trajectory of `dataset` to a store file at `path`
/// (Create + Append* + Finish).
Status WriteDatasetStore(const Dataset& dataset, const std::string& path);

/// Stale-artifact janitor: removes every orphaned `*.tmp` entry in `dir`
/// and returns how many were swept. Every durable writer in the codebase
/// (snapshot envelope, store writer, the service's atomic output publish)
/// follows the write-`<path>.tmp` → fsync → rename protocol, so after a
/// crash anything still named `*.tmp` is an orphan of an interrupted
/// write — never a complete artifact. Temp files registered in the
/// process-wide live-artifact registry (common/artifact_registry.h) belong
/// to an in-flight writer and are skipped, so sweeping a directory a live
/// job is publishing into is safe: only true orphans are reclaimed. A
/// missing `dir` is not an error (nothing to sweep). Each removal is logged
/// and counted on the `janitor.stale_removed` telemetry counter; skipped
/// live files are counted on `janitor.live_skipped`.
Result<size_t> SweepStaleArtifacts(const std::string& dir,
                                   telemetry::Telemetry* telemetry = nullptr);

}  // namespace store
}  // namespace wcop

#endif  // WCOP_STORE_STORE_FILE_H_
