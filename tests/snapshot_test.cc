#include "common/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "common/failpoint.h"
#include "common/rng.h"

namespace wcop {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("snapshot_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  static std::string ReadRaw(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  static void WriteRaw(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// CRC32 (reference vectors from the zlib/PNG polynomial).
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, Crc32KnownVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

// The textbook bitwise CRC-32: no table, one polynomial step per bit. The
// reference the slicing-by-8 implementation must agree with everywhere.
uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc ^= static_cast<unsigned char>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng->UniformInt(0, 255));
  }
  return out;
}

// Every length 0..300 at every start offset 0..7: covers each tail length
// of the 8-byte main loop and each alignment of the input pointer.
TEST_F(SnapshotTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(17);
  const std::string buffer = RandomBytes(&rng, 300 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::string_view slice(buffer.data() + offset, length);
      ASSERT_EQ(Crc32(slice), BitwiseCrc32(slice))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST_F(SnapshotTest, Crc32MatchesBitwiseReferenceOnOneMebibyte) {
  Rng rng(29);
  const std::string bytes = RandomBytes(&rng, size_t{1} << 20);
  EXPECT_EQ(Crc32(bytes), BitwiseCrc32(bytes));
}

// ---------------------------------------------------------------------------
// Round-trip and basic failure modes.
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, RoundTrip) {
  const std::string path = Path("snap");
  const std::string payload("hello checkpoint \0 binary ok", 29);
  ASSERT_TRUE(WriteSnapshotFile(path, payload, /*format_version=*/7).ok());

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->format_version, 7u);
  EXPECT_EQ(read->payload, payload);
  // No temp file left behind after a clean write.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(SnapshotTest, EmptyPayloadRoundTrips) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "", 1).ok());
  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->payload.empty());
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  Result<Snapshot> read = ReadSnapshotFile(Path("nonexistent"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, OverwriteReplacesPreviousSnapshot) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "old", 1).ok());
  ASSERT_TRUE(WriteSnapshotFile(path, "new", 2).ok());
  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->payload, "new");
  EXPECT_EQ(read->format_version, 2u);
}

// ---------------------------------------------------------------------------
// Corruption: every torn-file shape must come back as kDataLoss, never as a
// bogus payload and never as a crash/giant allocation.
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, CorruptMagicIsDataLoss) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  std::string bytes = ReadRaw(path);
  bytes[0] = 'X';
  WriteRaw(path, bytes);

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

TEST_F(SnapshotTest, TruncatedHeaderIsDataLoss) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  std::string bytes = ReadRaw(path);
  WriteRaw(path, bytes.substr(0, 10));  // shorter than the 24-byte header

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

TEST_F(SnapshotTest, TruncatedPayloadIsDataLoss) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "a payload long enough to cut", 1).ok());
  std::string bytes = ReadRaw(path);
  WriteRaw(path, bytes.substr(0, bytes.size() - 5));

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

TEST_F(SnapshotTest, TrailingGarbageIsDataLoss) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  WriteRaw(path, ReadRaw(path) + "extra");

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

TEST_F(SnapshotTest, FlippedPayloadBitIsCrcMismatch) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  std::string bytes = ReadRaw(path);
  bytes[bytes.size() - 1] ^= 0x01;  // flip one payload bit
  WriteRaw(path, bytes);

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
  EXPECT_NE(read.status().message().find("CRC"), std::string::npos)
      << read.status();
}

// A header claiming a huge payload over a tiny file must not allocate the
// claimed size; it reports the size mismatch instead.
TEST_F(SnapshotTest, HugeClaimedSizeIsDataLossNotAllocation) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "tiny", 1).ok());
  std::string bytes = ReadRaw(path);
  for (int i = 12; i < 20; ++i) {
    bytes[static_cast<size_t>(i)] = '\xff';  // payload size = ~2^64
  }
  WriteRaw(path, bytes);

  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

// ---------------------------------------------------------------------------
// Rotation + fallback: a corrupt (or missing) current file falls back to the
// previous good snapshot, so a crash mid-write costs one interval at most.
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, RotatingWriteKeepsPrevious) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotRotating(path, "first", 1).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".prev"));
  ASSERT_TRUE(WriteSnapshotRotating(path, "second", 1).ok());
  ASSERT_TRUE(std::filesystem::exists(path + ".prev"));

  Result<Snapshot> current = ReadSnapshotFile(path);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->payload, "second");
  Result<Snapshot> previous = ReadSnapshotFile(path + ".prev");
  ASSERT_TRUE(previous.ok());
  EXPECT_EQ(previous->payload, "first");
}

TEST_F(SnapshotTest, FallbackPrefersCurrent) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotRotating(path, "first", 1).ok());
  ASSERT_TRUE(WriteSnapshotRotating(path, "second", 1).ok());
  Result<Snapshot> read = ReadSnapshotWithFallback(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->payload, "second");
}

TEST_F(SnapshotTest, FallbackUsesPreviousWhenCurrentCorrupt) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotRotating(path, "first", 1).ok());
  ASSERT_TRUE(WriteSnapshotRotating(path, "second", 1).ok());
  std::string bytes = ReadRaw(path);
  bytes[bytes.size() - 1] ^= 0x01;
  WriteRaw(path, bytes);

  Result<Snapshot> read = ReadSnapshotWithFallback(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->payload, "first");
}

TEST_F(SnapshotTest, FallbackUsesPreviousWhenCurrentMissing) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotRotating(path, "first", 1).ok());
  ASSERT_TRUE(WriteSnapshotRotating(path, "second", 1).ok());
  std::filesystem::remove(path);

  Result<Snapshot> read = ReadSnapshotWithFallback(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->payload, "first");
}

TEST_F(SnapshotTest, FallbackReportsDataLossWhenBothCorrupt) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotRotating(path, "first", 1).ok());
  ASSERT_TRUE(WriteSnapshotRotating(path, "second", 1).ok());
  for (const std::string& p : {path, path + ".prev"}) {
    std::string bytes = ReadRaw(p);
    bytes[bytes.size() - 1] ^= 0x01;
    WriteRaw(p, bytes);
  }

  Result<Snapshot> read = ReadSnapshotWithFallback(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << read.status();
}

TEST_F(SnapshotTest, FallbackReportsNotFoundWhenNothingExists) {
  Result<Snapshot> read = ReadSnapshotWithFallback(Path("never_written"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Failpoint-injected write failures: the previous snapshot survives, and a
// RetryPolicy rides over transient (max_fires-limited) failures.
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, FailedWriteLeavesPreviousIntact) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "good", 1).ok());
  for (const char* site :
       {"snapshot.open_temp", "snapshot.write", "snapshot.fsync",
        "snapshot.rename"}) {
    ScopedFailpoint fp(site, Status::IoError("injected"));
    Status s = WriteSnapshotFile(path, "doomed", 1);
    ASSERT_FALSE(s.ok()) << site;
    EXPECT_EQ(s.code(), StatusCode::kIoError) << site << ": " << s;
    Result<Snapshot> read = ReadSnapshotFile(path);
    ASSERT_TRUE(read.ok()) << site << ": " << read.status();
    EXPECT_EQ(read->payload, "good") << site;
  }
}

TEST_F(SnapshotTest, RetryRidesOverTransientWriteFailure) {
  const std::string path = Path("snap");
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.sleep_between_attempts = false;
  ScopedFailpoint fp("snapshot.fsync", Status::IoError("transient"),
                     /*max_fires=*/2);
  ASSERT_TRUE(WriteSnapshotFile(path, "persistent", 1, &retry).ok());
  Result<Snapshot> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->payload, "persistent");
}

TEST_F(SnapshotTest, RetryRidesOverTransientReadFailure) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.sleep_between_attempts = false;
  ScopedFailpoint fp("snapshot.read", Status::IoError("transient"),
                     /*max_fires=*/2);
  Result<Snapshot> read = ReadSnapshotFile(path, &retry);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->payload, "payload");
}

TEST_F(SnapshotTest, CorruptionIsNotRetried) {
  const std::string path = Path("snap");
  ASSERT_TRUE(WriteSnapshotFile(path, "payload", 1).ok());
  std::string bytes = ReadRaw(path);
  bytes[bytes.size() - 1] ^= 0x01;
  WriteRaw(path, bytes);

  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.sleep_between_attempts = false;
  FailpointRegistry::Instance().EnableHitCounting(true);
  const uint64_t hits_before =
      FailpointRegistry::Instance().HitCount("snapshot.read");
  Result<Snapshot> read = ReadSnapshotFile(path, &retry);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
  // kDataLoss is terminal: exactly one read attempt was made.
  EXPECT_EQ(FailpointRegistry::Instance().HitCount("snapshot.read"),
            hits_before + 1);
  FailpointRegistry::Instance().EnableHitCounting(false);
}

}  // namespace
}  // namespace wcop
