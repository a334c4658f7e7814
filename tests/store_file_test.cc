#include "store/store_file.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/number_codec.h"
#include "data/store_convert.h"
#include "test_util.h"
#include "traj/io.h"

namespace wcop {
namespace store {
namespace {

using testing_util::MakeLineWithReq;
using testing_util::SmallSynthetic;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good());
}

void ExpectBitExact(const Trajectory& a, const Trajectory& b) {
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.object_id(), b.object_id());
  EXPECT_EQ(a.parent_id(), b.parent_id());
  EXPECT_EQ(a.requirement().k, b.requirement().k);
  // Bitwise equality throughout: the text round-trip must be lossless.
  EXPECT_EQ(a.requirement().delta, b.requirement().delta);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points()[i].x, b.points()[i].x) << "point " << i;
    EXPECT_EQ(a.points()[i].y, b.points()[i].y) << "point " << i;
    EXPECT_EQ(a.points()[i].t, b.points()[i].t) << "point " << i;
  }
}

TEST(StoreFileTest, RoundTripIsBitExact) {
  const Dataset dataset = SmallSynthetic(24, 40);
  const std::string path = TempPath("store_roundtrip.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());

  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->size(), dataset.size());
  EXPECT_EQ(reader->total_points(), dataset.TotalPoints());

  Result<Dataset> back = reader->ReadAll();
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    ExpectBitExact(dataset[i], (*back)[i]);
  }
  std::filesystem::remove(path);
}

TEST(StoreFileTest, IndexCarriesPartitionerMetadata) {
  Dataset dataset;
  dataset.Add(MakeLineWithReq(7, 100.0, 200.0, 5.0, -3.0, /*n=*/20,
                              /*k=*/4, /*delta=*/123.5, /*dt=*/2.0,
                              /*t0=*/50.0));
  const std::string path = TempPath("store_meta.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());

  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->index().size(), 1u);
  const StoreEntry& e = reader->index()[0];
  const BoundingBox bounds = dataset[0].Bounds();
  EXPECT_EQ(e.id, 7);
  EXPECT_EQ(e.num_points, 20u);
  EXPECT_EQ(e.k, 4);
  EXPECT_EQ(e.delta, 123.5);
  EXPECT_EQ(e.min_x, bounds.min_x());
  EXPECT_EQ(e.min_y, bounds.min_y());
  EXPECT_EQ(e.max_x, bounds.max_x());
  EXPECT_EQ(e.max_y, bounds.max_y());
  EXPECT_EQ(e.t_min, dataset[0].StartTime());
  EXPECT_EQ(e.t_max, dataset[0].EndTime());
  std::filesystem::remove(path);
}

TEST(StoreFileTest, ReadByIdAndNotFound) {
  const Dataset dataset = SmallSynthetic(10, 12);
  const std::string path = TempPath("store_by_id.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());

  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const int64_t want = dataset[3].id();
  Result<Trajectory> t = reader->ReadById(want);
  ASSERT_TRUE(t.ok()) << t.status();
  ExpectBitExact(dataset[3], *t);

  Result<Trajectory> missing = reader->ReadById(-12345);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  std::filesystem::remove(path);
}

// CSV -> store -> CSV must reproduce the CSV byte-for-byte: the parsed
// doubles are stored losslessly, so re-printing them %.6f gives back the
// exact original text (coordinates, timestamps, and (k, delta) included).
// Both store versions: the v2 store this build writes, and a v1 store of
// the same parsed dataset, built by hand as older builds wrote it.
TEST(StoreFileTest, CsvStoreCsvRoundTripIsByteIdentical) {
  const Dataset dataset = SmallSynthetic(16, 30);
  const std::string csv_in = TempPath("store_rt_in.csv");
  const std::string store_path = TempPath("store_rt.wst");
  const std::string v1_path = TempPath("store_rt_v1.wst");
  const std::string csv_out = TempPath("store_rt_out.csv");
  ASSERT_TRUE(WriteDatasetCsv(dataset, csv_in).ok());

  Result<StoreConvertStats> to_store = ConvertCsvToStore(csv_in, store_path);
  ASSERT_TRUE(to_store.ok()) << to_store.status();
  EXPECT_EQ(to_store->trajectories, dataset.size());
  EXPECT_EQ(to_store->points, dataset.TotalPoints());
  Result<Dataset> parsed = ReadDatasetCsv(csv_in);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  WriteFileBytes(v1_path, testing_util::BuildV1StoreBytes(*parsed));

  for (const auto& [path, version] :
       {std::pair{store_path, kStoreFormatVersion}, std::pair{v1_path, 1u}}) {
    EXPECT_EQ(ReadFileBytes(path)[8], static_cast<char>(version));
    Result<StoreConvertStats> to_csv = ConvertStoreToCsv(path, csv_out);
    ASSERT_TRUE(to_csv.ok()) << to_csv.status();
    EXPECT_EQ(ReadFileBytes(csv_in), ReadFileBytes(csv_out))
        << "version " << version;
  }

  std::filesystem::remove(csv_in);
  std::filesystem::remove(store_path);
  std::filesystem::remove(v1_path);
  std::filesystem::remove(csv_out);
}

TEST(StoreFileTest, TruncationSurfacesDataLossNeverATornRead) {
  const Dataset dataset = SmallSynthetic(8, 16);
  const std::string path = TempPath("store_trunc.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  // Cut the file at a spread of lengths: every truncation must be rejected
  // at Open() (the index or footer is damaged) — never a partial dataset.
  for (const double frac : {0.1, 0.5, 0.9, 0.99}) {
    const size_t cut = static_cast<size_t>(bytes.size() * frac);
    WriteFileBytes(path, bytes.substr(0, cut));
    Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
    ASSERT_FALSE(reader.ok()) << "cut at " << cut;
    EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss)
        << reader.status();
  }
  // Dropping only the final footer byte must fail too.
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 1));
  EXPECT_EQ(TrajectoryStoreReader::Open(path).status().code(),
            StatusCode::kDataLoss);
  std::filesystem::remove(path);
}

TEST(StoreFileTest, BitFlipInBlockIsIsolatedDataLoss) {
  const Dataset dataset = SmallSynthetic(6, 16);
  const std::string path = TempPath("store_flip.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());

  Result<TrajectoryStoreReader> clean = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(clean.ok()) << clean.status();
  // Flip one bit in the middle of trajectory 2's payload.
  const StoreEntry victim = clean->index()[2];
  std::string bytes = ReadFileBytes(path);
  bytes[victim.offset + victim.block_size / 2] ^= 0x10;
  WriteFileBytes(path, bytes);

  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();  // index is intact
  Result<Trajectory> damaged = reader->Read(2);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss);
  // Undamaged blocks stay readable and exact.
  for (const size_t i : {size_t{0}, size_t{1}, size_t{3}, size_t{5}}) {
    Result<Trajectory> t = reader->Read(i);
    ASSERT_TRUE(t.ok()) << t.status();
    ExpectBitExact(dataset[i], *t);
  }
  // ReadAll must refuse the damaged store rather than return a torn subset.
  EXPECT_EQ(reader->ReadAll().status().code(), StatusCode::kDataLoss);
  std::filesystem::remove(path);
}

TEST(StoreFileTest, BitFlipInIndexRejectsAtOpen) {
  const Dataset dataset = SmallSynthetic(6, 16);
  const std::string path = TempPath("store_flip_idx.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  std::string bytes = ReadFileBytes(path);
  // The index sits between the last block and the 16-byte footer; flip a
  // byte 40 bytes before the footer (inside some index entry).
  bytes[bytes.size() - 16 - 40] ^= 0x04;
  WriteFileBytes(path, bytes);
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss) << reader.status();
  std::filesystem::remove(path);
}

TEST(StoreFileTest, UnsupportedVersionIsRejected) {
  const Dataset dataset = SmallSynthetic(4, 10);
  const std::string path = TempPath("store_version.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[8] = 99;  // format version lives at [8..12), little-endian
  WriteFileBytes(path, bytes);
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  std::filesystem::remove(path);
}

TEST(StoreFileTest, WriterFailpointsPropagateAndLeaveNoStore) {
  const Dataset dataset = SmallSynthetic(4, 10);
  const std::string path = TempPath("store_failpoint.wst");
  for (const char* site : {"store.create", "store.write_block",
                           "store.write_index", "store.fsync",
                           "store.rename"}) {
    ScopedFailpoint fp(site, Status::IoError("injected"));
    Status s = WriteDatasetStore(dataset, path);
    ASSERT_FALSE(s.ok()) << site;
    EXPECT_EQ(s.code(), StatusCode::kIoError) << site;
    // A failed write never leaves a (partial) store at the target path.
    EXPECT_FALSE(std::filesystem::exists(path)) << site;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << site;
  }
  // Disarmed, the same write succeeds.
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  std::filesystem::remove(path);
}

TEST(StoreFileTest, ReaderFailpointsPropagate) {
  const Dataset dataset = SmallSynthetic(4, 10);
  const std::string path = TempPath("store_failpoint_rd.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  {
    ScopedFailpoint fp("store.open", Status::IoError("injected"));
    EXPECT_EQ(TrajectoryStoreReader::Open(path).status().code(),
              StatusCode::kIoError);
  }
  {
    ScopedFailpoint fp("store.read_index", Status::DataLoss("injected"));
    EXPECT_EQ(TrajectoryStoreReader::Open(path).status().code(),
              StatusCode::kDataLoss);
  }
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  {
    ScopedFailpoint fp("store.read_block", Status::DataLoss("injected"));
    EXPECT_EQ(reader->Read(0).status().code(), StatusCode::kDataLoss);
  }
  EXPECT_TRUE(reader->Read(0).ok());
  std::filesystem::remove(path);
}

TEST(StoreFileTest, EmptyAndMissingFiles) {
  const std::string path = TempPath("store_empty.wst");
  WriteFileBytes(path, "");
  EXPECT_EQ(TrajectoryStoreReader::Open(path).status().code(),
            StatusCode::kDataLoss);
  std::filesystem::remove(path);
  EXPECT_FALSE(TrajectoryStoreReader::Open(path).ok());
}

// ---------------------------------------------------------------------------
// Number codec: shortest round-trip text, legacy %.17g compatibility, and
// malformed tokens.
// ---------------------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::string Legacy17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Doubles whose text form is easy to get wrong: signed zero, the smallest
// subnormal, the extremes, non-dyadic decimals, integers past 2^53.
std::vector<double> AwkwardDoubles() {
  return {-0.0,
          0.0,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::max(),
          0.1,
          1e22,
          9007199254740993.0,  // 2^53 + 1, rounds to 2^53
          std::nextafter(9007199254740992.0, 1e300),  // 2^53 + 2
          -1e300,
          -123456789.123456789,
          -4.0e15 - 0.5,
          1.0 / 3.0};
}

TEST(StoreFileTest, NumberCodecRoundTripIsBitwise) {
  for (const double v : AwkwardDoubles()) {
    std::string text;
    codec::AppendDouble(&text, v);
    const std::optional<double> back = codec::ParseDouble(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(Bits(*back), Bits(v)) << text;
    // The legacy spelling reads back to the same bits.
    const std::optional<double> legacy = codec::ParseDouble(Legacy17g(v));
    ASSERT_TRUE(legacy.has_value()) << Legacy17g(v);
    EXPECT_EQ(Bits(*legacy), Bits(v)) << Legacy17g(v);
    EXPECT_LE(text.size(), Legacy17g(v).size()) << "not the shortest: " << text;
  }
  for (const int64_t v : {int64_t{0}, int64_t{-1},
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max(),
                          int64_t{9007199254740993}}) {
    std::string text;
    codec::AppendInt(&text, v);
    EXPECT_EQ(codec::ParseInt(text), std::optional<int64_t>(v)) << text;
  }
  std::string max_u64;
  codec::AppendUint(&max_u64, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(max_u64, "18446744073709551615");
  EXPECT_EQ(codec::ParseUint(max_u64),
            std::optional<uint64_t>(std::numeric_limits<uint64_t>::max()));
  // Non-finite values round-trip too (they can only appear in metric
  // payloads; trajectories reject them at Validate()).
  for (const double v : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::string text;
    codec::AppendDouble(&text, v);
    EXPECT_EQ(codec::ParseDouble(text), std::optional<double>(v)) << text;
  }
  std::string nan_text;
  codec::AppendDouble(&nan_text, std::numeric_limits<double>::quiet_NaN());
  ASSERT_TRUE(codec::ParseDouble(nan_text).has_value());
  EXPECT_TRUE(std::isnan(*codec::ParseDouble(nan_text)));
}

// Every awkward double in one trajectory, with extreme ids and a subnormal
// delta.
Trajectory AwkwardTrajectory() {
  std::vector<Point> points;
  double t = -1e300;
  for (const double v : AwkwardDoubles()) {
    points.push_back(Point{v, -v, t});
    t = t < 0 ? 0.1 : t * 7.0 + 1.0;
  }
  Trajectory awkward(-9007199254740993LL, std::move(points),
                     Requirement{3, std::numeric_limits<double>::denorm_min()});
  awkward.set_object_id(std::numeric_limits<int64_t>::min());
  awkward.set_parent_id(-1);
  return awkward;
}

TEST(StoreFileTest, AwkwardCoordinatesSurviveTheStoreBitwise) {
  const Trajectory awkward = AwkwardTrajectory();
  Dataset dataset;
  dataset.Add(awkward);
  const std::string path = TempPath("store_awkward.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  Result<Trajectory> back = reader->Read(0);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectBitExact(awkward, *back);
  for (size_t i = 0; i < awkward.size(); ++i) {
    // EXPECT_EQ(-0.0, 0.0) holds; the sign bit must survive too.
    EXPECT_EQ(Bits(back->points()[i].x), Bits(awkward.points()[i].x)) << i;
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Format versions: the writer emits v2 in exactly the documented layout, and
// v1 stores (text payloads, which this build no longer writes) still read.
// ---------------------------------------------------------------------------

std::vector<std::string> BinaryPayloads(const Dataset& dataset) {
  std::vector<std::string> payloads;
  for (const Trajectory& t : dataset.trajectories()) {
    payloads.emplace_back();
    AppendBinaryTrajectoryRecord(&payloads.back(), t);
  }
  return payloads;
}

TEST(StoreFileTest, WriterEmitsTheDocumentedVersion2Layout) {
  Dataset dataset = SmallSynthetic(6, 9);
  dataset.Add(AwkwardTrajectory());
  const std::string path = TempPath("store_v2_layout.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  EXPECT_EQ(ReadFileBytes(path),
            testing_util::BuildStoreBytes(2, dataset.trajectories(),
                                          BinaryPayloads(dataset)));
  // 48-byte header + 24 bytes per point, nothing else.
  std::string payload;
  AppendBinaryTrajectoryRecord(&payload, dataset[0]);
  EXPECT_EQ(payload.size(), 48 + 24 * dataset[0].size());
  std::filesystem::remove(path);
}

TEST(StoreFileTest, Version1StoreReadsBackBitExact) {
  Dataset dataset = SmallSynthetic(12, 20);
  dataset.Add(AwkwardTrajectory());
  const std::string path = TempPath("store_v1.wst");
  WriteFileBytes(path, testing_util::BuildV1StoreBytes(dataset));

  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->total_points(), dataset.TotalPoints());
  Result<Dataset> back = reader->ReadAll();
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    ExpectBitExact(dataset[i], (*back)[i]);
  }
  const Trajectory& awkward = back->trajectories().back();
  for (size_t i = 0; i < awkward.size(); ++i) {
    EXPECT_EQ(Bits(awkward.points()[i].x),
              Bits(dataset.trajectories().back().points()[i].x))
        << i;
  }
  Result<Trajectory> by_id = reader->ReadById(dataset[4].id());
  ASSERT_TRUE(by_id.ok()) << by_id.status();
  ExpectBitExact(dataset[4], *by_id);
  std::filesystem::remove(path);
}

// Blocks whose CRC is valid but whose v2 contents are malformed: the CRC
// cannot catch these, so the decoder and the index cross-check must.
TEST(StoreFileTest, MalformedVersion2BlocksWithValidCrcAreDataLoss) {
  const Dataset dataset = SmallSynthetic(2, 6);
  const Trajectory& t = dataset[0];
  std::string good;
  AppendBinaryTrajectoryRecord(&good, t);
  const auto set_u64 = [](std::string bytes, size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    return bytes;
  };
  // An index row for a trajectory with another id / another point count.
  Trajectory other_id = t;
  other_id.set_id(t.id() + 1000);
  Trajectory fewer_points(t.id(),
                          std::vector<Point>(t.points().begin(),
                                             t.points().end() - 1),
                          t.requirement());
  struct Case {
    const char* name;
    Trajectory row;
    std::string payload;
  };
  const std::vector<Case> cases = {
      {"shorter than the header", t, good.substr(0, 40)},
      {"empty payload", t, std::string()},
      {"n one too many", t, set_u64(good, 40, t.size() + 1)},
      {"n one too few", t, set_u64(good, 40, t.size() - 1)},
      {"n huge", t, set_u64(good, 40, ~uint64_t{0})},
      {"trailing bytes", t, good + "xyz"},
      {"missing last byte", t, good.substr(0, good.size() - 1)},
      {"k above int", t, set_u64(good, 24, uint64_t{1} << 40)},
      {"k below int", t,
       set_u64(good, 24, static_cast<uint64_t>(-(int64_t{1} << 40)))},
      {"id disagrees with index", other_id, good},
      {"n disagrees with index", fewer_points, good},
  };
  const std::string path = TempPath("store_v2_malformed.wst");
  for (const Case& c : cases) {
    WriteFileBytes(path, testing_util::BuildStoreBytes(2, {c.row}, {c.payload}));
    Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << c.name << ": " << reader.status();
    Result<Trajectory> back = reader->Read(0);
    ASSERT_FALSE(back.ok()) << c.name;
    EXPECT_EQ(back.status().code(), StatusCode::kDataLoss)
        << c.name << ": " << back.status();
  }
  // The unmodified control decodes.
  WriteFileBytes(path, testing_util::BuildStoreBytes(2, {t}, {good}));
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  Result<Trajectory> back = reader->Read(0);
  ASSERT_TRUE(back.ok()) << back.status();
  ExpectBitExact(t, *back);
  std::filesystem::remove(path);
}

// Reads are positioned (pread) on one shared descriptor with no lock:
// threads reading every block in different orders all get exact data.
TEST(StoreFileTest, ConcurrentReadsAreBitExact) {
  const Dataset dataset = SmallSynthetic(40, 30);
  const std::string path = TempPath("store_concurrent.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (size_t round = 0; round < 5; ++round) {
        for (size_t j = 0; j < dataset.size(); ++j) {
          const size_t i = (j * (2 * w + 1) + round) % dataset.size();
          Result<Trajectory> t = reader->Read(i);
          if (!t.ok() || t->points() != dataset[i].points() ||
              t->id() != dataset[i].id()) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  std::filesystem::remove(path);
}

// A store truncated under an open reader: the positioned read hits end of
// file, which is kDataLoss like any other truncation.
TEST(StoreFileTest, TruncationUnderAnOpenReaderIsDataLoss) {
  const Dataset dataset = SmallSynthetic(6, 16);
  const std::string path = TempPath("store_trunc_open.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, path).ok());
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  const StoreEntry& last = reader->index().back();
  std::filesystem::resize_file(path, last.offset + last.block_size / 2);
  Result<Trajectory> torn = reader->Read(reader->size() - 1);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss) << torn.status();
  Result<Trajectory> first = reader->Read(0);
  ASSERT_TRUE(first.ok()) << first.status();
  ExpectBitExact(dataset[0], *first);
  std::filesystem::remove(path);
}

// A text record in the printf("%.17g") spelling of the oldest builds,
// written by hand: the text parser must read it to the same bits, so v1
// stores of either spelling stay readable.
TEST(StoreFileTest, LegacyPercent17gPayloadParsesToTheSameBits) {
  const Dataset dataset = SmallSynthetic(3, 12);
  for (const Trajectory& t : dataset.trajectories()) {
    std::string legacy = "traj " + std::to_string(t.id()) + " " +
                         std::to_string(t.object_id()) + " " +
                         std::to_string(t.parent_id()) + " " +
                         std::to_string(t.requirement().k) + " " +
                         Legacy17g(t.requirement().delta) + " " +
                         std::to_string(t.size()) + "\n";
    for (const Point& p : t.points()) {
      legacy += Legacy17g(p.x) + " " + Legacy17g(p.y) + " " + Legacy17g(p.t) +
                "\n";
    }
    std::string current;
    AppendTrajectoryRecord(&current, t);
    EXPECT_NE(legacy, current) << "the two spellings should differ somewhere";
    EXPECT_LT(current.size(), legacy.size());
    size_t pos = 0;
    Result<Trajectory> back = ParseTrajectoryRecord(legacy, &pos);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(pos, legacy.size() - 1);  // just past the last token
    ExpectBitExact(t, *back);
  }
}

TEST(StoreFileTest, MalformedNumberTokensAreDataLossNeverACoordinate) {
  const std::string head = "traj 1 1 -1 2 50 2\n0 0 0\n";
  const std::string oversized = "1" + std::string(40, '0');
  // The second point's x coordinate is replaced by each bad token. A
  // leading '+' and hex floats are rejected on purpose (see
  // common/number_codec.h); no writer ever produced them.
  for (const std::string& bad : {std::string("1.5x"), std::string("1e"),
                                 std::string("--1"), std::string("1..5"),
                                 std::string("+1"), std::string("0x1p3"),
                                 std::string("1e400"), oversized}) {
    const std::string payload = head + bad + " 5 1\n";
    size_t pos = 0;
    Result<Trajectory> t = ParseTrajectoryRecord(payload, &pos);
    ASSERT_FALSE(t.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(t.status().code(), StatusCode::kDataLoss) << bad;
    EXPECT_FALSE(codec::ParseDouble(bad).has_value()) << bad;
  }
  // An empty token: the payload ends where the coordinate should be.
  size_t pos = 0;
  EXPECT_EQ(ParseTrajectoryRecord(head + "3 5", &pos).status().code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(codec::ParseDouble("").has_value());
  // Integer fields are as strict: fractional, signed-unsigned, overflow.
  for (const char* bad : {"2.0", "1e3", "99999999999999999999", "+1"}) {
    const std::string payload =
        std::string("traj ") + bad + " 1 -1 2 50 1\n0 0 0\n";
    pos = 0;
    EXPECT_EQ(ParseTrajectoryRecord(payload, &pos).status().code(),
              StatusCode::kDataLoss)
        << bad;
  }
  EXPECT_FALSE(codec::ParseUint("-1").has_value());
  // The well-formed control parses.
  pos = 0;
  EXPECT_TRUE(ParseTrajectoryRecord(head + "3 5 1\n", &pos).ok());
}

// ---------------------------------------------------------------------------
// Janitor vs live writers: SweepStaleArtifacts must reclaim only true
// orphans. A temp file owned by an in-flight writer (registered in the
// live-artifact registry) survives every sweep, even when the sweep runs in
// the same directory at the same time.
// ---------------------------------------------------------------------------

TEST(StoreFileTest, SweepSkipsLiveWriterTempFile) {
  const std::string dir = TempPath("janitor_live_dir");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  // A true orphan from a "crashed" writer and a live writer's temp file.
  WriteFileBytes(dir + "/orphan.wst.tmp", "torn bytes");
  Result<TrajectoryStoreWriter> writer =
      TrajectoryStoreWriter::Create(dir + "/live.wst");
  ASSERT_TRUE(writer.ok()) << writer.status();
  const Dataset dataset = SmallSynthetic(3, 10);
  ASSERT_TRUE(writer->Append(dataset.trajectories().front()).ok());

  Result<size_t> swept = SweepStaleArtifacts(dir);
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_EQ(*swept, 1u);  // the orphan, nothing else
  EXPECT_FALSE(std::filesystem::exists(dir + "/orphan.wst.tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/live.wst.tmp"));

  // The surviving writer publishes normally...
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_TRUE(TrajectoryStoreReader::Open(dir + "/live.wst").ok());

  // ...and once finished, its name is no longer protected: a later orphan
  // under the same name is ordinary garbage again.
  WriteFileBytes(dir + "/live.wst.tmp", "leftover");
  swept = SweepStaleArtifacts(dir);
  ASSERT_TRUE(swept.ok()) << swept.status();
  EXPECT_EQ(*swept, 1u);
  std::filesystem::remove_all(dir);
}

TEST(StoreFileTest, SweepRacingActiveWriterNeverTearsThePublish) {
  const std::string dir = TempPath("janitor_race_dir");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  const Dataset dataset = SmallSynthetic(32, 20);
  std::atomic<bool> done{false};
  std::thread sweeper([&]() {
    // Hammer the janitor for the whole life of the writer. Every sweep must
    // see the registered temp file and leave it alone.
    while (!done.load(std::memory_order_relaxed)) {
      Result<size_t> swept = SweepStaleArtifacts(dir);
      EXPECT_TRUE(swept.ok()) << swept.status();
    }
  });

  Result<TrajectoryStoreWriter> writer =
      TrajectoryStoreWriter::Create(dir + "/race.wst");
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const Trajectory& t : dataset.trajectories()) {
    ASSERT_TRUE(writer->Append(t).ok());
  }
  Status finish = writer->Finish();
  done.store(true, std::memory_order_relaxed);
  sweeper.join();
  ASSERT_TRUE(finish.ok()) << finish;

  // The publish survived the sweeps intact and round-trips bit-exactly.
  Result<TrajectoryStoreReader> reader =
      TrajectoryStoreReader::Open(dir + "/race.wst");
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ(reader->size(), dataset.size());
  Result<Trajectory> first = reader->Read(0);
  ASSERT_TRUE(first.ok()) << first.status();
  ExpectBitExact(*first, dataset.trajectories().front());
  std::filesystem::remove_all(dir);
}

TEST(StoreFileTest, LiveArtifactRegistryRefCounts) {
  const std::string path = TempPath("refcounted.tmp");
  RegisterLiveArtifact(path);
  RegisterLiveArtifact(path);
  EXPECT_TRUE(IsLiveArtifact(path));
  UnregisterLiveArtifact(path);
  EXPECT_TRUE(IsLiveArtifact(path));  // one registration still live
  UnregisterLiveArtifact(path);
  EXPECT_FALSE(IsLiveArtifact(path));
  // Relative and absolute spellings of the same file agree.
  ScopedLiveArtifact scoped("relative_name.tmp");
  EXPECT_TRUE(IsLiveArtifact(
      (std::filesystem::current_path() / "relative_name.tmp").string()));
}

}  // namespace
}  // namespace store
}  // namespace wcop
