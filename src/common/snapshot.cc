#include "common/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/artifact_registry.h"
#include "common/failpoint.h"

namespace wcop {

namespace {

constexpr char kMagic[8] = {'W', 'C', 'O', 'P', 'S', 'N', 'P', '1'};
constexpr size_t kHeaderSize = 8 + 4 + 8 + 4;

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

Status WriteSnapshotOnce(const std::string& path, std::string_view payload,
                         uint32_t format_version) {
  const std::string tmp = path + ".tmp";
  // Registered for the duration of the write so a concurrent stale-artifact
  // sweep of this directory never reclaims the file mid-flight.
  const ScopedLiveArtifact live(tmp);
  WCOP_FAILPOINT("snapshot.open_temp");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + tmp + ": " +
                           std::strerror(errno));
  }
  char header[kHeaderSize];
  std::memcpy(header, kMagic, 8);
  PutU32(header + 8, format_version);
  PutU64(header + 12, payload.size());
  PutU32(header + 20, Crc32(payload));

  auto write_all = [&](const char* data, size_t n) -> Status {
    while (n > 0) {
      const ssize_t w = ::write(fd, data, n);
      if (w < 0) {
        if (errno == EINTR) {
          continue;
        }
        return Status::IoError("write failed on " + tmp + ": " +
                               std::strerror(errno));
      }
      data += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  };

  // Failpoints fire inside lambdas so an injected Status routes through the
  // common cleanup below (the fd must close before we propagate).
  Status status = [&]() -> Status {
    WCOP_FAILPOINT("snapshot.write");
    return Status::OK();
  }();
  if (status.ok()) {
    status = write_all(header, kHeaderSize);
  }
  if (status.ok() && !payload.empty()) {
    status = write_all(payload.data(), payload.size());
  }
  if (status.ok()) {
    status = [&]() -> Status {
      WCOP_FAILPOINT("snapshot.fsync");
      return Status::OK();
    }();
  }
  if (status.ok() && ::fsync(fd) != 0) {
    status = Status::IoError("fsync failed on " + tmp + ": " +
                             std::strerror(errno));
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IoError("close failed on " + tmp + ": " +
                             std::strerror(errno));
  }
  if (!status.ok()) {
    return status;
  }
  WCOP_FAILPOINT("snapshot.rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + " -> " + path + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<Snapshot> ReadSnapshotOnce(const std::string& path) {
  WCOP_FAILPOINT("snapshot.read");
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound("no snapshot at " + path);
  }
  const std::streamsize file_size = in.tellg();
  in.seekg(0);
  if (file_size < static_cast<std::streamsize>(kHeaderSize)) {
    return Status::DataLoss("snapshot " + path + " shorter than its header");
  }
  char header[kHeaderSize];
  in.read(header, kHeaderSize);
  if (in.gcount() != static_cast<std::streamsize>(kHeaderSize)) {
    return Status::DataLoss("snapshot " + path + " shorter than its header");
  }
  if (std::memcmp(header, kMagic, 8) != 0) {
    return Status::DataLoss("snapshot " + path + " has a bad magic header");
  }
  Snapshot snapshot;
  snapshot.format_version = GetU32(header + 8);
  const uint64_t payload_size = GetU64(header + 12);
  const uint32_t expected_crc = GetU32(header + 20);
  // Validate the claimed size against the file before allocating: a corrupt
  // length field must not become a multi-gigabyte allocation (and any
  // size mismatch is data loss anyway — truncated payload or trailing
  // bytes from a torn write).
  const uint64_t available = static_cast<uint64_t>(file_size) - kHeaderSize;
  if (payload_size != available) {
    return Status::DataLoss("snapshot " + path + " payload size mismatch (" +
                            "header claims " + std::to_string(payload_size) +
                            " bytes, file holds " + std::to_string(available) +
                            ")");
  }
  snapshot.payload.resize(payload_size);
  if (payload_size > 0) {
    in.read(snapshot.payload.data(),
            static_cast<std::streamsize>(payload_size));
    if (in.gcount() != static_cast<std::streamsize>(payload_size)) {
      return Status::DataLoss("snapshot " + path + " payload truncated (" +
                              std::to_string(in.gcount()) + " of " +
                              std::to_string(payload_size) + " bytes)");
    }
  }
  const uint32_t actual_crc = Crc32(snapshot.payload);
  if (actual_crc != expected_crc) {
    return Status::DataLoss("snapshot " + path + " CRC mismatch (stored " +
                            std::to_string(expected_crc) + ", computed " +
                            std::to_string(actual_crc) + ")");
  }
  return snapshot;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  // Slicing-by-8 CRC-32 (reflected 0x04C11DB7, i.e. 0xEDB88320), the
  // zlib/PNG checksum. table[0] is the classic bytewise table; table[j][b]
  // is the CRC of byte b followed by j zero bytes, so eight table lookups
  // fold eight input bytes at once. The tables are built once, lazily.
  static const std::array<std::array<uint32_t, 256>, 8> table = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t j = 1; j < 8; ++j) {
        t[j][i] = t[0][t[j - 1][i] & 0xffu] ^ (t[j - 1][i] >> 8);
      }
    }
    return t;
  }();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    // Assembled bytewise, so the loop is endian- and alignment-neutral.
    const uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                               static_cast<uint32_t>(p[1]) << 8 |
                               static_cast<uint32_t>(p[2]) << 16 |
                               static_cast<uint32_t>(p[3]) << 24);
    crc = table[7][lo & 0xffu] ^ table[6][(lo >> 8) & 0xffu] ^
          table[5][(lo >> 16) & 0xffu] ^ table[4][lo >> 24] ^
          table[3][p[4]] ^ table[2][p[5]] ^ table[1][p[6]] ^ table[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    crc = table[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status WriteSnapshotFile(const std::string& path, std::string_view payload,
                         uint32_t format_version, const RetryPolicy* retry) {
  if (retry == nullptr) {
    return WriteSnapshotOnce(path, payload, format_version);
  }
  return RetryCall(*retry, [&]() {
    return WriteSnapshotOnce(path, payload, format_version);
  });
}

Result<Snapshot> ReadSnapshotFile(const std::string& path,
                                  const RetryPolicy* retry) {
  if (retry == nullptr) {
    return ReadSnapshotOnce(path);
  }
  return RetryResultCall<Snapshot>(
      *retry, [&]() { return ReadSnapshotOnce(path); });
}

Status WriteSnapshotRotating(const std::string& path, std::string_view payload,
                             uint32_t format_version,
                             const RetryPolicy* retry) {
  // Keep the previous good snapshot before the new one replaces it. The
  // rotation itself need not be atomic: every interleaving of a crash
  // leaves at least one of {path, path.prev} a complete valid snapshot,
  // which is exactly what ReadSnapshotWithFallback recovers.
  const std::string prev = path + ".prev";
  if (::access(path.c_str(), F_OK) == 0) {
    if (std::rename(path.c_str(), prev.c_str()) != 0) {
      return Status::IoError("rotate " + path + " -> " + prev + " failed: " +
                             std::strerror(errno));
    }
  }
  return WriteSnapshotFile(path, payload, format_version, retry);
}

Result<Snapshot> ReadSnapshotWithFallback(const std::string& path,
                                          const RetryPolicy* retry) {
  Result<Snapshot> current = ReadSnapshotFile(path, retry);
  if (current.ok()) {
    return current;
  }
  Result<Snapshot> previous = ReadSnapshotFile(path + ".prev", retry);
  if (previous.ok()) {
    return previous;
  }
  // Surface the more informative failure: corruption beats absence.
  if (current.status().code() == StatusCode::kNotFound &&
      previous.status().code() != StatusCode::kNotFound) {
    return previous.status();
  }
  return current.status();
}

}  // namespace wcop
