// Robustness: the file parsers must never crash or loop on malformed
// input — they fail with a Status or skip garbage records gracefully —
// and the anonymization pipeline must survive adversarial datasets
// (non-finite coordinates, broken timelines, degenerate trajectories)
// by returning a non-OK Status or a structurally valid result.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "anon/verifier.h"
#include "anon/wcop_ct.h"
#include "common/rng.h"
#include "data/geolife_parser.h"
#include "store/store_file.h"
#include "test_util.h"
#include "traj/io.h"

namespace wcop {
namespace {

namespace fs = std::filesystem;

class FuzzRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "wcop_fuzz";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string WriteBytes(const std::string& name, const std::string& bytes) {
    const fs::path path = dir_ / name;
    std::ofstream out(path, std::ios::binary);
    out << bytes;
    return path.string();
  }

  fs::path dir_;
};

std::string RandomBytes(Rng* rng, size_t n, bool printable) {
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(printable
                      ? static_cast<char>(rng->UniformInt(32, 126))
                      : static_cast<char>(rng->UniformInt(0, 255)));
  }
  return out;
}

TEST_F(FuzzRobustnessTest, PltParserSurvivesRandomBytes) {
  const LocalProjection proj(39.9057, 116.3913);
  Rng rng(101);
  for (int round = 0; round < 40; ++round) {
    const std::string path = WriteBytes(
        "fuzz_" + std::to_string(round) + ".plt",
        RandomBytes(&rng, 64 + rng.UniformIndex(2048), round % 2 == 0));
    // Must return (any status) without crashing; a parsed result must be
    // structurally valid.
    Result<Trajectory> r = ParsePltFile(path, proj);
    if (r.ok()) {
      EXPECT_TRUE(r->Validate().ok());
    }
  }
}

TEST_F(FuzzRobustnessTest, CsvReaderSurvivesRandomBytes) {
  Rng rng(202);
  for (int round = 0; round < 40; ++round) {
    const std::string path = WriteBytes(
        "fuzz_" + std::to_string(round) + ".csv",
        RandomBytes(&rng, 64 + rng.UniformIndex(2048), round % 2 == 0));
    Result<Dataset> r = ReadDatasetCsv(path);
    if (r.ok()) {
      EXPECT_TRUE(r->Validate().ok());
    }
  }
}

TEST_F(FuzzRobustnessTest, CsvReaderSurvivesTruncatedValidFile) {
  // A valid file cut at every prefix length must parse or error cleanly.
  const std::string full =
      "traj_id,object_id,parent_id,k,delta,x,y,t\n"
      "1,2,-1,3,100.5,10.25,20.5,1000\n"
      "1,2,-1,3,100.5,11.25,21.5,1010\n"
      "2,3,-1,2,50.0,0,0,5\n"
      "2,3,-1,2,50.0,1,1,6\n";
  for (size_t len = 0; len <= full.size(); len += 7) {
    const std::string path =
        WriteBytes("trunc_" + std::to_string(len) + ".csv",
                   full.substr(0, len));
    Result<Dataset> r = ReadDatasetCsv(path);
    if (r.ok()) {
      EXPECT_TRUE(r->Validate().ok());
    }
  }
}

TEST_F(FuzzRobustnessTest, PltParserSurvivesPathologicalNumbers) {
  const LocalProjection proj(39.9057, 116.3913);
  const std::string path = WriteBytes(
      "patho.plt",
      "90.0,180.0,0,0,1e308,x,y\n"
      "-90.0,-180.0,0,0,-1e308,x,y\n"
      "nan,inf,0,0,nan,x,y\n"
      "1e-320,5,0,0,39745.2,2008-10-24,04:48:00\n"
      "39.9,116.4,0,0,39745.3,2008-10-24,07:12:00\n"
      "39.91,116.41,0,0,39745.4,2008-10-24,09:36:00\n");
  Result<Trajectory> r = ParsePltFile(path, proj);
  if (r.ok()) {
    EXPECT_TRUE(r->Validate().ok());  // non-finite points must not survive
  }
}

// A v2 store block whose payload is mutated or truncated at random, with
// the block CRC recomputed so the damage reaches the decoder: every read
// must either decode (consistently with the index row) or be kDataLoss.
TEST_F(FuzzRobustnessTest, StoreV2PayloadSurvivesRandomMutations) {
  const Trajectory original = testing_util::MakeLineWithReq(
      /*id=*/5, 100.0, 200.0, 3.5, -1.25, /*n=*/12, /*k=*/3, /*delta=*/80.0);
  std::string good;
  store::AppendBinaryTrajectoryRecord(&good, original);
  Rng rng(303);
  size_t decoded = 0;
  size_t rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string payload = good;
    if (rng.UniformInt(0, 3) == 0) {
      payload.resize(rng.UniformIndex(good.size() + 1));
    } else {
      const int64_t edits = rng.UniformInt(1, 4);
      for (int64_t e = 0; e < edits; ++e) {
        payload[rng.UniformIndex(payload.size())] =
            static_cast<char>(rng.UniformInt(0, 255));
      }
    }
    const std::string path = WriteBytes(
        "mutated.wst",
        testing_util::BuildStoreBytes(2, {original}, {payload}));
    Result<store::TrajectoryStoreReader> reader =
        store::TrajectoryStoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    Result<Trajectory> t = reader->Read(0);
    if (t.ok()) {
      EXPECT_EQ(t->id(), original.id());
      EXPECT_EQ(t->size(), original.size());
      ++decoded;
    } else {
      ASSERT_EQ(t.status().code(), StatusCode::kDataLoss)
          << "round " << round << ": " << t.status();
      ++rejected;
    }
  }
  // Both outcomes occur: coordinate edits decode, header damage is caught.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Adversarial end-to-end runs: RunWcopCt must either reject the dataset with
// a clean Status or publish a result the independent verifier accepts. It
// must never crash, hang, or publish structurally invalid trajectories.
// ---------------------------------------------------------------------------

using testing_util::MakeLineWithReq;

// Shared contract check for every adversarial dataset below.
void ExpectCleanRejectionOrValidResult(const Dataset& dataset) {
  WcopOptions options;
  options.seed = 13;
  Result<AnonymizationResult> r = RunWcopCt(dataset, options);
  if (!r.ok()) {
    EXPECT_FALSE(r.status().message().empty()) << r.status();
    return;
  }
  EXPECT_TRUE(r->sanitized.Validate().ok());
  VerificationReport verification = VerifyAnonymity(dataset, *r);
  EXPECT_TRUE(verification.ok)
      << (verification.messages.empty() ? "" : verification.messages.front());
}

TEST(AdversarialPipelineTest, NanCoordinates) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  std::vector<Point> points;
  for (int i = 0; i < 20; ++i) {
    points.emplace_back(std::nan(""), 5.0, 10.0 * i);
  }
  Trajectory poisoned(100, std::move(points), Requirement{2, 500.0});
  d.Add(std::move(poisoned));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, InfiniteCoordinates) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  std::vector<Point> points;
  const double inf = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 20; ++i) {
    points.emplace_back(i % 2 == 0 ? inf : -inf, 5.0, 10.0 * i);
  }
  d.Add(Trajectory(100, std::move(points), Requirement{2, 500.0}));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, NonMonotoneTimestamps) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  std::vector<Point> points;
  for (int i = 0; i < 20; ++i) {
    // Timeline zig-zags backwards every third sample.
    points.emplace_back(1.0 * i, 1.0 * i, i % 3 == 0 ? 100.0 - i : 1.0 * i);
  }
  d.Add(Trajectory(100, std::move(points), Requirement{2, 500.0}));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, ZeroPointTrajectory) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  d.Add(Trajectory(100, {}, Requirement{2, 500.0}));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, SinglePointTrajectory) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  d.Add(Trajectory(100, {Point(3.0, 4.0, 50.0)}, Requirement{2, 500.0}));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, DuplicateTrajectoryIds) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  // Same id as trajectory 1, different geometry.
  d.Add(MakeLineWithReq(1, 500.0, 500.0, -1.0, 0.5, 20, 3, 400.0));
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, DuplicateObjectIds) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    Trajectory t = MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2,
                                   500.0);
    t.set_object_id(7);  // every trajectory claims the same moving object
    d.Add(std::move(t));
  }
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, EmptyDataset) {
  ExpectCleanRejectionOrValidResult(Dataset{});
}

TEST(AdversarialPipelineTest, UnsatisfiableRequirements) {
  // Three trajectories all demanding k = 50: no cluster can ever reach its
  // k, so everything must be trashed or the run must fail cleanly.
  Dataset d;
  for (int i = 0; i < 3; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 50, 500.0));
  }
  ExpectCleanRejectionOrValidResult(d);
}

TEST(AdversarialPipelineTest, ExtremeCoordinateMagnitudes) {
  Dataset d;
  for (int i = 0; i < 8; ++i) {
    d.Add(MakeLineWithReq(i + 1, i * 10.0, 0.0, 1.0, 1.0, 20, 2, 500.0));
  }
  d.Add(MakeLineWithReq(100, 1e15, -1e15, 1e12, -1e12, 20, 2, 500.0));
  ExpectCleanRejectionOrValidResult(d);
}

}  // namespace
}  // namespace wcop
