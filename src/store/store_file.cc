#include "store/store_file.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/number_codec.h"
#include "common/snapshot.h"
#include "geo/bounding_box.h"

namespace wcop {
namespace store {

namespace {

constexpr char kFileMagic[8] = {'W', 'C', 'O', 'P', 'S', 'T', 'R', '1'};
constexpr char kIndexMagic[8] = {'W', 'C', 'O', 'P', 'S', 'I', 'D', 'X'};
constexpr char kEndMagic[8] = {'W', 'C', 'O', 'P', 'S', 'E', 'N', 'D'};
constexpr size_t kHeaderSize = 8 + 4 + 4;
constexpr size_t kBlockHeaderSize = 4 + 4;
constexpr size_t kEntrySize = 13 * 8;  // 13 8-byte fields per index entry
constexpr size_t kFooterSize = 8 + 8;
constexpr size_t kContextPollBlocks = 256;  // ReadSubset's RunContext cadence

void PutU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void PutU64(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void PutF64(char* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}

uint32_t GetU32(const char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(in[i])) << (8 * i);
  }
  return v;
}

double GetF64(const char* in) {
  const uint64_t bits = GetU64(in);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

Status WriteAll(std::FILE* f, const char* data, size_t n,
                const std::string& path) {
  if (n != 0 && std::fwrite(data, 1, n, f) != n) {
    return Status::IoError("write failed on " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status ReadExact(std::FILE* f, uint64_t offset, char* out, size_t n,
                 const std::string& path) {
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::DataLoss("store " + path + ": seek past end (truncated?)");
  }
  if (std::fread(out, 1, n, f) != n) {
    return Status::DataLoss("store " + path + ": short read (truncated?)");
  }
  return Status::OK();
}

StoreEntry MakeEntry(const Trajectory& t, uint64_t offset,
                     uint64_t block_size) {
  StoreEntry e;
  e.id = t.id();
  e.offset = offset;
  e.block_size = block_size;
  e.num_points = t.size();
  e.k = t.requirement().k;
  e.delta = t.requirement().delta;
  const BoundingBox box = t.Bounds();
  e.min_x = box.min_x();
  e.min_y = box.min_y();
  e.max_x = box.max_x();
  e.max_y = box.max_y();
  e.t_min = t.StartTime();
  e.t_max = t.EndTime();
  return e;
}

void EncodeEntry(char* out, const StoreEntry& e) {
  PutU64(out + 0, static_cast<uint64_t>(e.id));
  PutU64(out + 8, e.offset);
  PutU64(out + 16, e.block_size);
  PutU64(out + 24, e.num_points);
  PutU64(out + 32, static_cast<uint64_t>(e.k));
  PutF64(out + 40, e.delta);
  PutF64(out + 48, e.min_x);
  PutF64(out + 56, e.min_y);
  PutF64(out + 64, e.max_x);
  PutF64(out + 72, e.max_y);
  PutF64(out + 80, e.t_min);
  PutF64(out + 88, e.t_max);
  PutU64(out + 96, 0);  // reserved
}

StoreEntry DecodeEntry(const char* in) {
  StoreEntry e;
  e.id = static_cast<int64_t>(GetU64(in + 0));
  e.offset = GetU64(in + 8);
  e.block_size = GetU64(in + 16);
  e.num_points = GetU64(in + 24);
  e.k = static_cast<int64_t>(GetU64(in + 32));
  e.delta = GetF64(in + 40);
  e.min_x = GetF64(in + 48);
  e.min_y = GetF64(in + 56);
  e.max_x = GetF64(in + 64);
  e.max_y = GetF64(in + 72);
  e.t_min = GetF64(in + 80);
  e.t_max = GetF64(in + 88);
  return e;
}

}  // namespace

void AppendTrajectoryRecord(std::string* out, const Trajectory& t) {
  out->append("traj ");
  codec::AppendInt(out, t.id());
  out->push_back(' ');
  codec::AppendInt(out, t.object_id());
  out->push_back(' ');
  codec::AppendInt(out, t.parent_id());
  out->push_back(' ');
  codec::AppendInt(out, t.requirement().k);
  out->push_back(' ');
  codec::AppendDouble(out, t.requirement().delta);
  out->push_back(' ');
  codec::AppendUint(out, t.size());
  out->push_back('\n');
  for (const Point& p : t.points()) {
    codec::AppendDouble(out, p.x);
    out->push_back(' ');
    codec::AppendDouble(out, p.y);
    out->push_back(' ');
    codec::AppendDouble(out, p.t);
    out->push_back('\n');
  }
}

Result<Trajectory> ParseTrajectoryRecord(std::string_view payload,
                                         size_t* pos) {
  codec::TokenScanner scan(payload, "store record", *pos);
  WCOP_RETURN_IF_ERROR(scan.Expect("traj"));
  WCOP_ASSIGN_OR_RETURN(int64_t id, scan.NextInt());
  WCOP_ASSIGN_OR_RETURN(int64_t object_id, scan.NextInt());
  WCOP_ASSIGN_OR_RETURN(int64_t parent_id, scan.NextInt());
  WCOP_ASSIGN_OR_RETURN(int64_t k, scan.NextInt());
  WCOP_ASSIGN_OR_RETURN(double delta, scan.NextDouble());
  WCOP_ASSIGN_OR_RETURN(int64_t num_points, scan.NextInt());
  if (num_points < 0 ||
      static_cast<uint64_t>(num_points) > payload.size() - *pos) {
    return Status::DataLoss("store record: implausible point count");
  }
  std::vector<Point> points;
  points.reserve(static_cast<size_t>(num_points));
  for (int64_t i = 0; i < num_points; ++i) {
    WCOP_ASSIGN_OR_RETURN(double x, scan.NextDouble());
    WCOP_ASSIGN_OR_RETURN(double y, scan.NextDouble());
    WCOP_ASSIGN_OR_RETURN(double t, scan.NextDouble());
    points.push_back(Point{x, y, t});
  }
  Trajectory t(id, std::move(points),
               Requirement{static_cast<int>(k), delta});
  t.set_object_id(object_id);
  t.set_parent_id(parent_id);
  *pos = scan.pos();
  return t;
}

Result<TrajectoryStoreWriter> TrajectoryStoreWriter::Create(
    const std::string& path) {
  WCOP_FAILPOINT("store.create");
  TrajectoryStoreWriter w;
  w.path_ = path;
  w.tmp_path_ = path + ".tmp";
  w.live_tmp_ = ScopedLiveArtifact(w.tmp_path_);
  w.file_.reset(std::fopen(w.tmp_path_.c_str(), "wb"));
  if (w.file_ == nullptr) {
    return Status::IoError("cannot open " + w.tmp_path_ + ": " +
                           std::strerror(errno));
  }
  char header[kHeaderSize];
  std::memcpy(header, kFileMagic, 8);
  PutU32(header + 8, kStoreFormatVersion);
  PutU32(header + 12, 0);
  WCOP_RETURN_IF_ERROR(WriteAll(w.file_.get(), header, kHeaderSize,
                                w.tmp_path_));
  w.offset_ = kHeaderSize;
  return w;
}

TrajectoryStoreWriter::~TrajectoryStoreWriter() {
  if (!finished_ && file_ != nullptr) {
    file_.reset();
    std::remove(tmp_path_.c_str());
  }
}

Status TrajectoryStoreWriter::Append(const Trajectory& t) {
  if (file_ == nullptr || finished_) {
    return Status::FailedPrecondition("store writer is closed");
  }
  WCOP_RETURN_IF_ERROR(t.Validate());
  WCOP_FAILPOINT("store.write_block");
  std::string payload;
  payload.reserve(64 + t.size() * 60);
  AppendTrajectoryRecord(&payload, t);
  if (payload.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("trajectory record exceeds block limit");
  }
  char block_header[kBlockHeaderSize];
  PutU32(block_header, static_cast<uint32_t>(payload.size()));
  PutU32(block_header + 4, Crc32(payload));
  WCOP_RETURN_IF_ERROR(WriteAll(file_.get(), block_header, kBlockHeaderSize,
                                tmp_path_));
  WCOP_RETURN_IF_ERROR(WriteAll(file_.get(), payload.data(), payload.size(),
                                tmp_path_));
  index_.push_back(
      MakeEntry(t, offset_, kBlockHeaderSize + payload.size()));
  offset_ += kBlockHeaderSize + payload.size();
  return Status::OK();
}

Status TrajectoryStoreWriter::Finish() {
  if (file_ == nullptr || finished_) {
    return Status::FailedPrecondition("store writer is closed");
  }
  Status status = [&]() -> Status {
    WCOP_FAILPOINT("store.write_index");
    std::string section;
    section.reserve(8 + 8 + index_.size() * kEntrySize + 4);
    section.append(kIndexMagic, 8);
    char buf[kEntrySize];
    PutU64(buf, index_.size());
    section.append(buf, 8);
    for (const StoreEntry& e : index_) {
      EncodeEntry(buf, e);
      section.append(buf, kEntrySize);
    }
    // CRC over the count and the entries (everything after the marker).
    const uint32_t crc =
        Crc32(std::string_view(section).substr(8));
    PutU32(buf, crc);
    section.append(buf, 4);
    char footer[kFooterSize];
    PutU64(footer, offset_);
    std::memcpy(footer + 8, kEndMagic, 8);
    section.append(footer, kFooterSize);
    WCOP_RETURN_IF_ERROR(WriteAll(file_.get(), section.data(),
                                  section.size(), tmp_path_));
    if (std::fflush(file_.get()) != 0) {
      return Status::IoError("flush failed on " + tmp_path_ + ": " +
                             std::strerror(errno));
    }
    WCOP_FAILPOINT("store.fsync");
    if (::fsync(fileno(file_.get())) != 0) {
      return Status::IoError("fsync failed on " + tmp_path_ + ": " +
                             std::strerror(errno));
    }
    return Status::OK();
  }();
  file_.reset();
  if (status.ok()) {
    // Fired by hand (not WCOP_FAILPOINT, which returns): an injected rename
    // failure must still fall through to the temp-file cleanup below.
    if (FailpointRegistry::Instance().active()) {
      status = FailpointRegistry::Instance().Fire("store.rename");
    }
    if (status.ok() &&
        std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
      status = Status::IoError("rename " + tmp_path_ + " -> " + path_ +
                               " failed: " + std::strerror(errno));
    }
  }
  if (!status.ok()) {
    std::remove(tmp_path_.c_str());
  }
  live_tmp_.Release();
  finished_ = true;
  return status;
}

Result<TrajectoryStoreReader> TrajectoryStoreReader::Open(
    const std::string& path) {
  WCOP_FAILPOINT("store.open");
  TrajectoryStoreReader r;
  r.path_ = path;
  r.mutex_ = std::make_unique<std::mutex>();
  r.file_.reset(std::fopen(path.c_str(), "rb"));
  if (r.file_ == nullptr) {
    return Status::NotFound("cannot open store " + path + ": " +
                            std::strerror(errno));
  }
  std::FILE* f = r.file_.get();
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::IoError("seek failed on " + path);
  }
  const long end = std::ftell(f);
  if (end < 0) {
    return Status::IoError("ftell failed on " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(end);
  if (file_size < kHeaderSize + kFooterSize) {
    return Status::DataLoss("store " + path + ": file too small");
  }
  char header[kHeaderSize];
  WCOP_RETURN_IF_ERROR(ReadExact(f, 0, header, kHeaderSize, path));
  if (std::memcmp(header, kFileMagic, 8) != 0) {
    return Status::DataLoss("store " + path + ": bad magic");
  }
  const uint32_t version = GetU32(header + 8);
  if (version != kStoreFormatVersion) {
    return Status::FailedPrecondition("store " + path +
                                      ": unsupported version " +
                                      std::to_string(version));
  }
  char footer[kFooterSize];
  WCOP_RETURN_IF_ERROR(
      ReadExact(f, file_size - kFooterSize, footer, kFooterSize, path));
  if (std::memcmp(footer + 8, kEndMagic, 8) != 0) {
    return Status::DataLoss("store " + path +
                            ": missing end marker (truncated?)");
  }
  const uint64_t index_offset = GetU64(footer);
  if (index_offset < kHeaderSize ||
      index_offset + 8 + 8 + 4 + kFooterSize > file_size) {
    return Status::DataLoss("store " + path + ": index offset out of range");
  }
  WCOP_FAILPOINT("store.read_index");
  char index_header[16];
  WCOP_RETURN_IF_ERROR(ReadExact(f, index_offset, index_header, 16, path));
  if (std::memcmp(index_header, kIndexMagic, 8) != 0) {
    return Status::DataLoss("store " + path + ": bad index marker");
  }
  const uint64_t count = GetU64(index_header + 8);
  if (count > file_size / kEntrySize) {
    return Status::DataLoss("store " + path + ": implausible index count");
  }
  const uint64_t index_bytes = 8 + count * kEntrySize;
  if (index_offset + 8 + index_bytes + 4 + kFooterSize != file_size) {
    return Status::DataLoss("store " + path + ": index size mismatch");
  }
  std::string section(index_bytes, '\0');
  WCOP_RETURN_IF_ERROR(
      ReadExact(f, index_offset + 8, section.data(), section.size(), path));
  char crc_buf[4];
  WCOP_RETURN_IF_ERROR(
      ReadExact(f, index_offset + 8 + index_bytes, crc_buf, 4, path));
  if (Crc32(section) != GetU32(crc_buf)) {
    return Status::DataLoss("store " + path + ": index CRC mismatch");
  }
  r.index_.reserve(count);
  r.by_id_.reserve(count);
  uint64_t expected_offset = kHeaderSize;
  for (uint64_t i = 0; i < count; ++i) {
    StoreEntry e = DecodeEntry(section.data() + 8 + i * kEntrySize);
    if (e.offset != expected_offset || e.block_size < kBlockHeaderSize ||
        e.offset + e.block_size > index_offset) {
      return Status::DataLoss("store " + path + ": corrupt index entry " +
                              std::to_string(i));
    }
    expected_offset = e.offset + e.block_size;
    r.total_points_ += e.num_points;
    if (!r.by_id_.emplace(e.id, i).second) {
      return Status::DataLoss("store " + path + ": duplicate id " +
                              std::to_string(e.id));
    }
    r.index_.push_back(e);
  }
  if (expected_offset != index_offset) {
    return Status::DataLoss("store " + path + ": blocks do not cover file");
  }
  return r;
}

Result<Trajectory> TrajectoryStoreReader::Read(size_t i) const {
  if (i >= index_.size()) {
    return Status::InvalidArgument("store read out of range");
  }
  WCOP_FAILPOINT("store.read_block");
  const StoreEntry& e = index_[i];
  std::string block(e.block_size, '\0');
  {
    std::lock_guard<std::mutex> lock(*mutex_);
    WCOP_RETURN_IF_ERROR(
        ReadExact(file_.get(), e.offset, block.data(), block.size(), path_));
  }
  const uint32_t payload_size = GetU32(block.data());
  const uint32_t crc = GetU32(block.data() + 4);
  if (payload_size != e.block_size - kBlockHeaderSize) {
    return Status::DataLoss("store " + path_ + ": block " +
                            std::to_string(i) + " size mismatch");
  }
  const std::string_view payload =
      std::string_view(block).substr(kBlockHeaderSize);
  if (Crc32(payload) != crc) {
    return Status::DataLoss("store " + path_ + ": block " +
                            std::to_string(i) + " CRC mismatch");
  }
  size_t pos = 0;
  WCOP_ASSIGN_OR_RETURN(Trajectory t, ParseTrajectoryRecord(payload, &pos));
  if (t.id() != e.id || t.size() != e.num_points) {
    return Status::DataLoss("store " + path_ + ": block " +
                            std::to_string(i) + " does not match index");
  }
  return t;
}

Result<Trajectory> TrajectoryStoreReader::ReadById(int64_t id) const {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("store " + path_ + ": no trajectory " +
                            std::to_string(id));
  }
  return Read(it->second);
}

Result<Dataset> TrajectoryStoreReader::ReadAll(
    const RunContext* context) const {
  std::vector<size_t> all(index_.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  return ReadSubset(all, context);
}

Result<Dataset> TrajectoryStoreReader::ReadSubset(
    const std::vector<size_t>& positions, const RunContext* context) const {
  Dataset dataset;
  dataset.mutable_trajectories().reserve(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    if (i % kContextPollBlocks == 0) {
      WCOP_RETURN_IF_ERROR(CheckRunContext(context));
    }
    WCOP_ASSIGN_OR_RETURN(Trajectory t, Read(positions[i]));
    dataset.Add(std::move(t));
  }
  return dataset;
}

Status WriteDatasetStore(const Dataset& dataset, const std::string& path) {
  WCOP_ASSIGN_OR_RETURN(TrajectoryStoreWriter writer,
                        TrajectoryStoreWriter::Create(path));
  for (const Trajectory& t : dataset.trajectories()) {
    WCOP_RETURN_IF_ERROR(writer.Append(t));
  }
  return writer.Finish();
}

Result<size_t> SweepStaleArtifacts(const std::string& dir,
                                   telemetry::Telemetry* telemetry) {
  WCOP_FAILPOINT("janitor.sweep");
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    if (errno == ENOENT) {
      return size_t{0};  // nothing there yet, nothing to sweep
    }
    return Status::IoError("janitor: cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  size_t removed = 0;
  size_t live_skipped = 0;
  Status first_error;
  for (struct dirent* entry = ::readdir(handle); entry != nullptr;
       entry = ::readdir(handle)) {
    const std::string_view name(entry->d_name);
    constexpr std::string_view kSuffix = ".tmp";
    if (name.size() <= kSuffix.size() ||
        name.substr(name.size() - kSuffix.size()) != kSuffix) {
      continue;
    }
    const std::string path = dir + "/" + std::string(name);
    if (IsLiveArtifact(path)) {
      // An in-flight writer in this process owns the file; it is not an
      // orphan, and deleting it would tear a live publish.
      ++live_skipped;
      log::Debug("janitor: skipped live artifact", {{"path", path}});
      continue;
    }
    if (std::remove(path.c_str()) != 0) {
      if (errno == ENOENT) {
        // Lost the race with a concurrent atomic publish: the temp was
        // renamed (or cleaned by its owner) between readdir and here.
        // The file became someone's committed output — not an orphan,
        // not an error.
        continue;
      }
      if (first_error.ok()) {
        first_error = Status::IoError("janitor: cannot remove " + path +
                                      ": " + std::strerror(errno));
      }
      continue;
    }
    ++removed;
    log::Info("janitor: removed stale artifact", {{"path", path}});
  }
  ::closedir(handle);
  if (!first_error.ok()) {
    return first_error;
  }
  if (telemetry != nullptr && removed > 0) {
    telemetry->metrics().GetCounter("janitor.stale_removed")->Add(removed);
  }
  if (telemetry != nullptr && live_skipped > 0) {
    telemetry->metrics().GetCounter("janitor.live_skipped")->Add(live_skipped);
  }
  return removed;
}

}  // namespace store
}  // namespace wcop
