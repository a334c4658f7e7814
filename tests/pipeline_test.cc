// Unit and in-process integration tests of the continuous publication
// pipeline: the window-iterator core, out-of-core window extraction with
// carry-over, the manifest codec, and the engine's publish / resume /
// refuse / retry semantics. Process-kill coverage lives in
// pipeline_chaos_test.cc.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "common/snapshot.h"
#include "pipeline/continuous.h"
#include "pipeline/manifest.h"
#include "store/store_file.h"
#include "store/window_io.h"
#include "test_util.h"

namespace wcop {
namespace {

using testing_util::GapDataset;
using testing_util::MakeLineWithReq;

namespace fs = std::filesystem;

// Three groups of three co-travelling lines in [0, 290] s: window 100 s
// gives exactly three windows with every group clusterable at k=2.
Dataset GroupedDataset() {
  std::vector<Trajectory> trajectories;
  int64_t id = 0;
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 3; ++i) {
      Trajectory t = MakeLineWithReq(id, 2000.0 * g, 30.0 * i, 5.0, 0.0,
                                     /*n=*/30, /*k=*/2, /*delta=*/300.0,
                                     /*dt=*/10.0);
      t.set_object_id(id);
      trajectories.push_back(std::move(t));
      ++id;
    }
  }
  return Dataset(std::move(trajectories));
}

// GroupedDataset plus a one-sample straggler at t = 50 that ends there:
// window 0 suppresses it for good.
Dataset GroupedDatasetWithStraggler() {
  std::vector<Trajectory> trajectories = GroupedDataset().trajectories();
  Trajectory straggler = MakeLineWithReq(9, 9000.0, 0.0, 5.0, 0.0, /*n=*/1,
                                         /*k=*/2, /*delta=*/300.0,
                                         /*dt=*/10.0, /*t0=*/50.0);
  straggler.set_object_id(9);
  trajectories.push_back(std::move(straggler));
  return Dataset(std::move(trajectories));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("pipeline_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::string WriteSource(const Dataset& dataset) {
    const std::string path = Path("source.wst");
    EXPECT_TRUE(store::WriteDatasetStore(dataset, path).ok());
    return path;
  }

  pipeline::ContinuousPipelineOptions BaseOptions(const std::string& source,
                                                  const std::string& out) {
    pipeline::ContinuousPipelineOptions options;
    options.source_store = source;
    options.output_dir = Path(out);
    options.window_seconds = 100.0;
    options.verify_shards = true;
    options.wcop.seed = 7;
    return options;
  }

  /// Byte map of every published artifact (stores + manifests) in `out`.
  std::map<std::string, std::string> PublishedBytes(const std::string& out) {
    std::map<std::string, std::string> bytes;
    for (const auto& entry : fs::directory_iterator(Path(out))) {
      if (!entry.is_regular_file()) {
        continue;
      }
      const std::string name = entry.path().filename().string();
      if (name.rfind("window_", 0) == 0) {
        bytes[name] = ReadBytes(entry.path().string());
      }
    }
    return bytes;
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Window-iterator core (store/window_io.h).
// ---------------------------------------------------------------------------

// Reference window count: one step per window, failing at the first window
// that does not advance. Gives up (nullopt) after `max_steps` windows.
std::optional<Result<size_t>> ReferenceWindowCount(double t_min, double t_max,
                                                   double w,
                                                   size_t max_steps) {
  auto start = [&](size_t i) { return t_min + static_cast<double>(i) * w; };
  for (size_t n = 0; n < max_steps; ++n) {
    if (start(n) > t_max) {
      return Result<size_t>(n);
    }
    if (start(n + 1) <= start(n)) {
      return Result<size_t>(Status::InvalidArgument("grid cannot advance"));
    }
  }
  return std::nullopt;
}

TEST_F(PipelineTest, PlanWindowsCoversTheWholeLifetime) {
  const Result<store::WindowPlan> plan = store::PlanWindows(0.0, 290.0, 100.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_windows, 3u);
  EXPECT_EQ(plan->WindowStart(0), 0.0);
  EXPECT_EQ(plan->WindowStart(1), 100.0);
  // The last sample (t = 290) falls inside the final window.
  EXPECT_LT(plan->WindowStart(2), 290.0);
  EXPECT_GT(plan->WindowStart(3), 290.0);

  // A t_max exactly on a window start opens that window: it holds t_max.
  EXPECT_EQ(store::PlanWindows(0.0, 300.0, 100.0)->num_windows, 4u);
  EXPECT_EQ(store::PlanWindows(5.0, 5.0, 100.0)->num_windows, 1u);
  // Inexact 0.1 s steps: the quotient (t_max - t_min) / 0.1 lands on both
  // sides of k for some of these k, so the count needs its correction in
  // both directions.
  for (const double t_min : {0.0, 1.7e9}) {
    const store::WindowPlan grid = *store::PlanWindows(t_min, t_min, 0.1);
    for (size_t k = 1; k <= 100; ++k) {
      const double start = grid.WindowStart(k);
      EXPECT_EQ(store::PlanWindows(t_min, start, 0.1)->num_windows, k + 1)
          << t_min << " " << k;
      EXPECT_EQ(store::PlanWindows(t_min, std::nextafter(start, 0.0), 0.1)
                    ->num_windows,
                k)
          << t_min << " " << k;
    }
  }

  // ~1.1e12 windows of 2^-10 s over [2^30, 2^31] (Unix-time magnitude):
  // every grid point is exact, so the count is known, and it comes back
  // without a step per window.
  const Result<store::WindowPlan> fine =
      store::PlanWindows(std::ldexp(1.0, 30), std::ldexp(1.0, 31),
                         std::ldexp(1.0, -10));
  ASSERT_TRUE(fine.ok()) << fine.status();
  EXPECT_EQ(fine->num_windows, (size_t{1} << 40) + 1);

  // Seeded brute force over magnitudes from 0 to 2^60 and widths from far
  // above the timestamps' ulp down to a fraction of it, where the grid
  // stalls: the closed form must count and reject exactly like stepping.
  Rng rng(2024);
  const double magnitudes[] = {0.0,  1.0,    -1e3, 1.7e9,
                               -1.7e9, 1e15, 4.5e15, 1e18,
                               std::ldexp(1.0, 60)};
  const double ulp_factors[] = {0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 4.0};
  size_t compared = 0;
  size_t rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const double base = magnitudes[rng.UniformInt(0, 8)];
    const double t_min = base * (1.0 + 1e-3 * rng.UniformReal(-1.0, 1.0));
    const double ulp =
        std::nextafter(std::fabs(t_min), INFINITY) - std::fabs(t_min);
    double w = 0.0;
    switch (rng.UniformInt(0, 2)) {
      case 0:  // a multiple of the ulp, near where the grid stalls
        w = ulp * ulp_factors[rng.UniformInt(0, 7)];
        break;
      case 1:  // a few ulps, not a clean multiple
        w = ulp * rng.UniformReal(0.2, 8.0);
        break;
      default:  // an everyday width
        w = std::pow(10.0, rng.UniformReal(-3.0, 4.0));
        break;
    }
    const double t_max = t_min + w * rng.UniformReal(0.0, 5000.0);
    const std::optional<Result<size_t>> expected =
        ReferenceWindowCount(t_min, t_max, w, 1u << 20);
    if (!expected.has_value()) {
      continue;
    }
    const Result<store::WindowPlan> plan = store::PlanWindows(t_min, t_max, w);
    SCOPED_TRACE(::testing::Message() << std::hexfloat << "t_min=" << t_min
                                      << " t_max=" << t_max << " w=" << w);
    ASSERT_EQ(plan.ok(), expected->ok()) << plan.status();
    if (plan.ok()) {
      EXPECT_EQ(plan->num_windows, **expected);
    } else {
      EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
      ++rejected;
    }
    ++compared;
  }
  // Both outcomes were exercised, not just the easy one.
  EXPECT_GT(compared, 3000u);
  EXPECT_GT(rejected, 100u);
  EXPECT_LT(rejected, compared - 1000);
}

TEST_F(PipelineTest, PlanWindowsRejectsBadWidths) {
  EXPECT_FALSE(store::PlanWindows(0.0, 10.0, 0.0).ok());
  EXPECT_FALSE(store::PlanWindows(0.0, 10.0, -1.0).ok());
  EXPECT_FALSE(store::PlanWindows(0.0, 10.0, NAN).ok());
  EXPECT_FALSE(store::PlanWindows(0.0, 10.0, INFINITY).ok());
  EXPECT_FALSE(store::PlanWindows(10.0, 0.0, 1.0).ok());
  EXPECT_FALSE(store::PlanWindows(0.0, INFINITY, 1.0).ok());
  // A width below 1 ulp of t_min cannot advance the grid.
  EXPECT_FALSE(store::PlanWindows(1e18, 1e18 + 10.0, 1e-6).ok());
  // At 0.75 ulp the grid advances on most steps but stalls on one: the
  // third step of 2^52 + 0.75 i rounds back onto the second (ties to even).
  const double t0 = std::ldexp(1.0, 52);
  EXPECT_FALSE(store::PlanWindows(t0, t0 + 3.0, 0.75).ok());
  // At exactly one ulp every grid point is exact and the plan succeeds.
  EXPECT_EQ(store::PlanWindows(t0, t0 + 3.0, 1.0)->num_windows, 4u);
  // Timestamps within +-1.5 * 2^52 have an ulp of at most 1, but offsets
  // i * 1.5 past 2^53 round to even numbers: near window 6.0e15 the grid
  // stalls, and the plan is rejected without stepping there.
  EXPECT_FALSE(store::PlanWindows(-t0, 1.5 * t0, 1.5).ok());
}

TEST_F(PipelineTest, SliceIsHalfOpen) {
  const Trajectory t = MakeLineWithReq(1, 0, 0, 1, 0, /*n=*/5, 2, 100.0,
                                       /*dt=*/10.0);  // t = 0..40
  EXPECT_EQ(store::SlicePointsInWindow(t, 0.0, 20.0).size(), 2u);  // 0, 10
  EXPECT_EQ(store::SlicePointsInWindow(t, 20.0, 50.0).size(), 3u);  // 20-40
  EXPECT_TRUE(store::SlicePointsInWindow(t, 100.0, 200.0).empty());
}

// ---------------------------------------------------------------------------
// Out-of-core extraction with carry-over (store/window_io.h).
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, ExtractWindowSpillsAndMergesCarry) {
  // Trajectory 1: one sample at t=90 in window [0,100), continues to 190.
  // Too short to publish alone -> spilled; window [100,200) must merge the
  // carried point in front of its own slice.
  std::vector<Trajectory> trajectories;
  std::vector<Point> pts;
  for (int i = 0; i < 11; ++i) {
    pts.emplace_back(5.0 * i, 0.0, 90.0 + 10.0 * i);  // t = 90..190
  }
  trajectories.emplace_back(1, pts, Requirement{3, 120.0});
  trajectories.back().set_object_id(42);
  const std::string source = WriteSource(Dataset(std::move(trajectories)));
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(source);
  ASSERT_TRUE(reader.ok());

  store::WindowExtractOptions w0;
  w0.window_start = 0.0;
  w0.window_end = 100.0;
  w0.window_out_path = Path("win0.wst");
  w0.carry_out_path = Path("carry1.wst");
  Result<store::WindowExtraction> first = ExtractWindow(*reader, w0);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->fragments, 0u);
  EXPECT_EQ(first->carried_out, 1u);
  EXPECT_EQ(first->suppressed, 0u);

  store::WindowExtractOptions w1;
  w1.window_start = 100.0;
  w1.window_end = 200.0;
  w1.carry_in_path = Path("carry1.wst");
  w1.window_out_path = Path("win1.wst");
  w1.carry_out_path = Path("carry2.wst");
  w1.next_fragment_id = 100;
  Result<store::WindowExtraction> second = ExtractWindow(*reader, w1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->carried_in, 1u);
  EXPECT_EQ(second->fragments, 1u);
  EXPECT_EQ(second->carried_out, 0u);

  Result<store::TrajectoryStoreReader> win1 =
      store::TrajectoryStoreReader::Open(Path("win1.wst"));
  ASSERT_TRUE(win1.ok());
  ASSERT_EQ(win1->size(), 1u);
  Result<Trajectory> merged = win1->Read(0);
  ASSERT_TRUE(merged.ok());
  // 1 carried point (t=90) + 10 in-window points (t=100..190), the user's
  // requirement preserved across the spill.
  EXPECT_EQ(merged->size(), 11u);
  EXPECT_EQ(merged->points().front().t, 90.0);
  EXPECT_EQ(merged->id(), 100);
  EXPECT_EQ(merged->parent_id(), 1);
  EXPECT_EQ(merged->object_id(), 42);
  EXPECT_EQ(merged->requirement().k, 3);
  EXPECT_EQ(merged->requirement().delta, 120.0);
}

// A --resume across the store format upgrade: the last window published
// by an older build left a v1 carry store; the next window, extracted by
// this build, must write the same window and carry bytes as from the v2
// carry this build would have written itself.
TEST_F(PipelineTest, ExtractWindowFromVersion1CarryMatchesVersion2Carry) {
  // Trajectory 1 (t = 90..190) carries one point from window [0,100) into
  // a fragment of window [100,200). Trajectory 2 samples once per window
  // (t = 90, 190, 290), so with min 3 points it is carried out of window
  // [100,200) again: both carry stores of window 1 are non-empty.
  std::vector<Trajectory> trajectories;
  std::vector<Point> pts;
  for (int i = 0; i < 11; ++i) {
    pts.emplace_back(5.0 * i, 0.0, 90.0 + 10.0 * i);
  }
  trajectories.emplace_back(1, pts, Requirement{3, 120.0});
  trajectories.back().set_object_id(42);
  trajectories.emplace_back(
      2,
      std::vector<Point>{{700.0, 1.5, 90.0}, {701.0, 2.5, 190.0},
                         {702.0, 3.5, 290.0}},
      Requirement{2, 75.0});
  trajectories.back().set_object_id(43);
  const std::string source = WriteSource(Dataset(std::move(trajectories)));
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(source);
  ASSERT_TRUE(reader.ok());

  store::WindowExtractOptions w0;
  w0.window_start = 0.0;
  w0.window_end = 100.0;
  w0.min_fragment_points = 3;
  w0.window_out_path = Path("win0.wst");
  w0.carry_out_path = Path("carry1.wst");
  ASSERT_TRUE(ExtractWindow(*reader, w0).ok());

  // The same carry records, as a v1 store.
  Result<store::TrajectoryStoreReader> carry =
      store::TrajectoryStoreReader::Open(Path("carry1.wst"));
  ASSERT_TRUE(carry.ok());
  Result<Dataset> carried = carry->ReadAll();
  ASSERT_TRUE(carried.ok());
  ASSERT_EQ(carried->size(), 2u);
  {
    std::ofstream out(Path("carry1_v1.wst"), std::ios::binary);
    out << testing_util::BuildV1StoreBytes(*carried);
  }

  // Format version: byte 8 of the store header.
  ASSERT_EQ(ReadBytes(Path("carry1.wst"))[8], 2);
  ASSERT_EQ(ReadBytes(Path("carry1_v1.wst"))[8], 1);

  std::map<std::string, std::string> outputs;
  for (const std::string carry_in : {"carry1.wst", "carry1_v1.wst"}) {
    store::WindowExtractOptions w1 = w0;
    w1.window_start = 100.0;
    w1.window_end = 200.0;
    w1.next_fragment_id = 100;
    w1.carry_in_path = Path(carry_in);
    w1.window_out_path = Path("win1_from_" + carry_in);
    w1.carry_out_path = Path("carry2_from_" + carry_in);
    Result<store::WindowExtraction> x = ExtractWindow(*reader, w1);
    ASSERT_TRUE(x.ok()) << x.status();
    EXPECT_EQ(x->carried_in, 2u);
    EXPECT_EQ(x->fragments, 1u);
    EXPECT_EQ(x->carried_out, 1u);
    outputs["win:" + carry_in] = ReadBytes(w1.window_out_path);
    outputs["carry:" + carry_in] = ReadBytes(w1.carry_out_path);
  }
  EXPECT_EQ(outputs["win:carry1.wst"], outputs["win:carry1_v1.wst"]);
  EXPECT_EQ(outputs["carry:carry1.wst"], outputs["carry:carry1_v1.wst"]);
}

TEST_F(PipelineTest, ExtractWindowSuppressesShortFinalFragment) {
  // Both trajectories end inside window [0, 100), so a short fragment has
  // nothing to carry into and is suppressed for good: one sample at t=95,
  // and four samples at t=60..90.
  std::vector<Trajectory> trajectories;
  std::vector<Point> pts = {{0.0, 0.0, 95.0}};
  trajectories.emplace_back(1, pts, Requirement{2, 100.0});
  trajectories.push_back(MakeLineWithReq(2, 0.0, 30.0, 5.0, 0.0, /*n=*/4,
                                         /*k=*/2, /*delta=*/100.0,
                                         /*dt=*/10.0, /*t0=*/60.0));
  const std::string source = WriteSource(Dataset(std::move(trajectories)));
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(source);
  ASSERT_TRUE(reader.ok());

  // A fragment with exactly min_fragment_points points is kept; 0 and 1
  // both admit single-point fragments.
  struct Case {
    size_t min_points;
    size_t fragments;
    size_t suppressed;
  };
  for (const Case& c : {Case{0, 2, 0}, Case{1, 2, 0}, Case{2, 1, 1},
                        Case{4, 1, 1}, Case{5, 0, 2}}) {
    SCOPED_TRACE(c.min_points);
    const std::string tag = std::to_string(c.min_points);
    store::WindowExtractOptions w;
    w.window_start = 0.0;
    w.window_end = 100.0;
    w.min_fragment_points = c.min_points;
    w.window_out_path = Path("win_" + tag + ".wst");
    w.carry_out_path = Path("carry_" + tag + ".wst");
    Result<store::WindowExtraction> stats = ExtractWindow(*reader, w);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->fragments, c.fragments);
    EXPECT_EQ(stats->carried_out, 0u);
    EXPECT_EQ(stats->suppressed, c.suppressed);
  }
}

// ---------------------------------------------------------------------------
// Manifest codec.
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, ManifestRoundTripsExactly) {
  pipeline::WindowManifest m;
  m.config_fingerprint = 0xdeadbeefcafef00dULL;
  m.window_index = 41;
  m.window_start = 0.1;  // not exactly representable: %.17g must round-trip
  m.window_end = 1e9 + 0.25;
  m.input_fragments = 7;
  m.published_fragments = 5;
  m.suppressed_delta = 2;
  m.carried_in = 1;
  m.carried_out = 3;
  m.clusters = 2;
  m.ttd = 12345.6789;
  m.skipped = true;
  m.degraded = true;
  m.next_fragment_id = -9;
  m.input_crc = 1;
  m.input_size = 2;
  m.output_crc = 3;
  m.output_size = 4;
  m.carry_crc = 5;
  m.carry_size = 6;

  const std::string encoded = pipeline::EncodeWindowManifest(m);
  Result<pipeline::WindowManifest> decoded =
      pipeline::DecodeWindowManifest(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(pipeline::EncodeWindowManifest(*decoded), encoded);
  EXPECT_EQ(decoded->window_start, m.window_start);
  EXPECT_EQ(decoded->next_fragment_id, -9);
  EXPECT_TRUE(decoded->skipped);
}

TEST_F(PipelineTest, ManifestDecodeFailuresAreDataLoss) {
  EXPECT_EQ(pipeline::DecodeWindowManifest("").status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(pipeline::DecodeWindowManifest("not-a-manifest 1 2 3")
                .status()
                .code(),
            StatusCode::kDataLoss);
  pipeline::WindowManifest m;
  std::string truncated = pipeline::EncodeWindowManifest(m);
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(pipeline::DecodeWindowManifest(truncated).status().code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------------
// The engine: publish, resume, refuse, retry.
// ---------------------------------------------------------------------------

TEST_F(PipelineTest, PublishesEveryWindowWithValidManifests) {
  const Dataset source_data = GroupedDataset();
  const std::string source = WriteSource(source_data);
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->windows_total, 3u);
  EXPECT_EQ(result->resumed_windows, 0u);
  ASSERT_EQ(result->windows.size(), 3u);
  EXPECT_GT(result->published_fragments, 0u);

  for (size_t wi = 0; wi < 3; ++wi) {
    SCOPED_TRACE(wi);
    char name[32];
    std::snprintf(name, sizeof(name), "window_%05zu", wi);
    const std::string store_path = Path("out/" + std::string(name) + ".wst");
    const std::string manifest_path =
        Path("out/" + std::string(name) + ".mfr");
    Result<pipeline::WindowManifest> manifest =
        pipeline::ReadWindowManifest(manifest_path);
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    EXPECT_EQ(manifest->window_index, wi);
    // The published store's bytes match the digest the manifest committed.
    Result<pipeline::FileDigest> digest = pipeline::DigestFile(store_path);
    ASSERT_TRUE(digest.ok());
    EXPECT_EQ(digest->crc, manifest->output_crc);
    EXPECT_EQ(digest->size, manifest->output_size);
    // And the store itself opens and holds the published fragments.
    Result<store::TrajectoryStoreReader> window =
        store::TrajectoryStoreReader::Open(store_path);
    ASSERT_TRUE(window.ok());
    EXPECT_EQ(window->size(), manifest->published_fragments);
    // Every published fragment links back to its source trajectory and
    // keeps that user's object id and (k, delta).
    for (size_t i = 0; i < window->size(); ++i) {
      Result<Trajectory> fragment = window->Read(i);
      ASSERT_TRUE(fragment.ok());
      const Trajectory* parent = source_data.FindById(fragment->parent_id());
      ASSERT_NE(parent, nullptr) << fragment->parent_id();
      EXPECT_EQ(fragment->object_id(), parent->object_id());
      EXPECT_EQ(fragment->requirement().k, parent->requirement().k);
      EXPECT_EQ(fragment->requirement().delta, parent->requirement().delta);
    }
  }
}

TEST_F(PipelineTest, RefusesNonEmptyOutputWithoutResume) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  EXPECT_EQ(pipeline::RunContinuousPipeline(options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, ResumeAdoptsAllPublishedWindowsWithoutRecompute) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  Result<pipeline::ContinuousPipelineResult> first =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(first.ok());
  const std::map<std::string, std::string> published = PublishedBytes("out");

  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> second =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->resumed_windows, 3u);
  EXPECT_EQ(second->published_fragments, first->published_fragments);
  EXPECT_EQ(second->total_ttd, first->total_ttd);
  EXPECT_EQ(PublishedBytes("out"), published);
}

TEST_F(PipelineTest, ResumeRecomputesTornLastWindowByteIdentically) {
  const std::string source = WriteSource(GroupedDatasetWithStraggler());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  Result<pipeline::ContinuousPipelineResult> first =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(first->suppressed_fragments, 0u);
  const std::map<std::string, std::string> published = PublishedBytes("out");

  // Tear the final window's output store (truncate) — the CRC check must
  // reject it, adopt windows 0-1 (their carry chain is inside the
  // two-window retention horizon), and recompute only window 2.
  {
    std::ofstream tear(Path("out/window_00002.wst"),
                       std::ios::binary | std::ios::trunc);
    tear << "torn";
  }
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 2u);
  EXPECT_EQ(resumed->suppressed_fragments, first->suppressed_fragments);
  EXPECT_EQ(PublishedBytes("out"), published);
}

TEST_F(PipelineTest, ResumeRecomputesTornMiddleWindowByteIdentically) {
  const std::string source = WriteSource(GroupedDatasetWithStraggler());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  Result<pipeline::ContinuousPipelineResult> first =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(first->suppressed_fragments, 0u);
  const std::map<std::string, std::string> published = PublishedBytes("out");

  // Tear a middle window. Its carry-in store is already past the two-window
  // retention horizon (GC'd when the later windows committed), so resume
  // must walk back to window 0 and recompute everything — trading work,
  // never bytes.
  {
    std::ofstream tear(Path("out/window_00001.wst"),
                       std::ios::binary | std::ios::trunc);
    tear << "torn";
  }
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 0u);
  EXPECT_EQ(resumed->suppressed_fragments, first->suppressed_fragments);
  EXPECT_EQ(PublishedBytes("out"), published);
}

TEST_F(PipelineTest, ResumeSurvivesDeletedWorkDir) {
  // Wiping the scratch directory costs recomputation, never correctness:
  // the carry chain cannot be verified, so the resume walks back to a
  // window it can recompute from scratch and rewrites identical bytes.
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  const std::map<std::string, std::string> published = PublishedBytes("out");

  fs::remove_all(Path("out/.work"));
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(PublishedBytes("out"), published);
}

TEST_F(PipelineTest, ResumeRejectsConfigMismatch) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());

  options.resume = true;
  options.wcop.seed = 99;  // different anonymization -> different bytes
  EXPECT_EQ(pipeline::RunContinuousPipeline(options).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PipelineTest, RaisedWindowCapResumesIntoThePrefix) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  options.max_windows = 1;
  Result<pipeline::ContinuousPipelineResult> capped =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->windows.size(), 1u);

  options.max_windows = 0;
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> full =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->resumed_windows, 1u);
  EXPECT_EQ(full->windows.size(), 3u);
}

TEST_F(PipelineTest, FailedShardAuditIsNeverPublished) {
  // Window 0 anonymizes and checkpoints its shards, then an injected fault
  // stops it before the commit. Each shard checkpoint is then rewritten
  // with a failed audit verdict (CRC-valid, so it is restored as-is), as
  // if the shard had published a delta violation. The resumed run must
  // refuse to publish the window and leave no manifest behind.
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  options.shard_checkpoints = true;
  FailpointRegistry::Instance().Arm("pipeline.window_anonymized",
                                    Status::Internal("stop before commit"),
                                    /*max_fires=*/1);
  ASSERT_FALSE(pipeline::RunContinuousPipeline(options).ok());
  FailpointRegistry::Instance().DisarmAll();

  size_t tampered = 0;
  for (const auto& entry :
       fs::recursive_directory_iterator(Path("out/.work"))) {
    if (entry.path().extension() != ".ckpt") {
      continue;
    }
    const std::string path = entry.path().string();
    Result<Snapshot> snapshot = ReadSnapshotFile(path);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    std::string payload = snapshot->payload;
    const std::string verdict = "\nverification 1";
    const size_t at = payload.find(verdict);
    ASSERT_NE(at, std::string::npos);
    payload[at + verdict.size() - 1] = '0';
    ASSERT_TRUE(
        WriteSnapshotFile(path, payload, snapshot->format_version).ok());
    ++tampered;
  }
  ASSERT_GT(tampered, 0u);

  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(options);
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(fs::exists(Path("out/window_00000.mfr")));
  EXPECT_FALSE(fs::exists(Path("out/window_00000.wst")));
}

TEST_F(PipelineTest, EmptyWindowsCommitEmptyStoresAndResumeAcrossTheGap) {
  const std::string source = WriteSource(GapDataset());
  Result<pipeline::ContinuousPipelineResult> reference =
      pipeline::RunContinuousPipeline(BaseOptions(source, "ref"));
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->windows.size(), 4u);
  EXPECT_GT(reference->windows[0].published_fragments, 0u);
  EXPECT_GT(reference->windows[3].published_fragments, 0u);
  for (const size_t wi : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(wi);
    const std::string name = "ref/window_0000" + std::to_string(wi);
    Result<pipeline::WindowManifest> manifest =
        pipeline::ReadWindowManifest(Path(name + ".mfr"));
    ASSERT_TRUE(manifest.ok()) << manifest.status();
    EXPECT_EQ(manifest->input_fragments, 0u);
    EXPECT_EQ(manifest->published_fragments, 0u);
    EXPECT_FALSE(manifest->skipped);
    Result<store::TrajectoryStoreReader> window =
        store::TrajectoryStoreReader::Open(Path(name + ".wst"));
    ASSERT_TRUE(window.ok()) << window.status();
    EXPECT_EQ(window->size(), 0u);
    Result<pipeline::FileDigest> digest =
        pipeline::DigestFile(Path(name + ".wst"));
    ASSERT_TRUE(digest.ok());
    EXPECT_EQ(digest->crc, manifest->output_crc);
  }
  const std::map<std::string, std::string> expected = PublishedBytes("ref");

  // Fail inside the gap, after window 2's store but before its manifest,
  // then resume: the empty windows resume like any other.
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  FailpointRegistry::Instance().ArmErrno("pipeline.window_published", ENOSPC,
                                         /*on_hit=*/3);
  EXPECT_EQ(pipeline::RunContinuousPipeline(options).status().code(),
            StatusCode::kIoError);
  EXPECT_TRUE(fs::exists(Path("out/window_00001.mfr")));
  EXPECT_FALSE(fs::exists(Path("out/window_00002.mfr")));
  options.resume = true;
  Result<pipeline::ContinuousPipelineResult> resumed =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->resumed_windows, 2u);
  EXPECT_EQ(PublishedBytes("out"), expected);
}

TEST_F(PipelineTest, ExpiredDeadlineStopsBeforeTheFirstWindow) {
  const std::string source = WriteSource(GapDataset());
  RunContext expired;
  expired.set_deadline(RunContext::Clock::now());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  options.wcop.run_context = &expired;
  Result<pipeline::ContinuousPipelineResult> strict =
      pipeline::RunContinuousPipeline(options);
  EXPECT_EQ(strict.status().code(), StatusCode::kDeadlineExceeded)
      << strict.status();
  EXPECT_TRUE(PublishedBytes("out").empty());

  options.wcop.allow_partial_results = true;
  Result<pipeline::ContinuousPipelineResult> partial =
      pipeline::RunContinuousPipeline(options);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_TRUE(partial->degraded);
  EXPECT_TRUE(partial->windows.empty());
  EXPECT_EQ(partial->published_fragments, 0u);
  EXPECT_TRUE(PublishedBytes("out").empty());
}

TEST_F(PipelineTest, CancellationBetweenWindowsIsNotDurable) {
  // The token is cancelled once window 0 commits. The next window's yield
  // point stops the run before the gap's empty windows publish anything;
  // a resume without the context then finishes at full quality.
  const std::string source = WriteSource(GapDataset());
  ASSERT_TRUE(pipeline::RunContinuousPipeline(BaseOptions(source, "ref")).ok());
  const std::map<std::string, std::string> expected = PublishedBytes("ref");

  for (const bool allow_partial : {false, true}) {
    SCOPED_TRACE(allow_partial);
    const std::string out = allow_partial ? "partial" : "strict";
    CancellationToken token;
    // Heap-held: GCC 12 under -fsanitize=thread reports a false
    // -Wmaybe-uninitialized for a stack RunContext taking a token.
    auto context = std::make_unique<RunContext>();
    context->set_cancellation_token(token);
    pipeline::ContinuousPipelineOptions options = BaseOptions(source, out);
    options.wcop.run_context = context.get();
    options.wcop.allow_partial_results = allow_partial;
    options.progress = [&token](const pipeline::PipelineProgress& p) {
      if (p.windows_done == 1) {
        token.RequestCancellation();
      }
    };
    Result<pipeline::ContinuousPipelineResult> stopped =
        pipeline::RunContinuousPipeline(options);
    if (allow_partial) {
      ASSERT_TRUE(stopped.ok()) << stopped.status();
      EXPECT_TRUE(stopped->degraded);
      EXPECT_EQ(stopped->windows.size(), 1u);
    } else {
      EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled)
          << stopped.status();
    }
    const std::map<std::string, std::string> committed = PublishedBytes(out);
    ASSERT_EQ(committed.size(), 2u);
    EXPECT_EQ(committed.count("window_00000.mfr"), 1u);
    EXPECT_EQ(committed.count("window_00000.wst"), 1u);

    options.wcop.run_context = nullptr;
    options.progress = nullptr;
    options.resume = true;
    Result<pipeline::ContinuousPipelineResult> resumed =
        pipeline::RunContinuousPipeline(options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ(resumed->resumed_windows, 1u);
    EXPECT_FALSE(resumed->degraded);
    EXPECT_EQ(PublishedBytes(out), expected);
  }
}

TEST_F(PipelineTest, InjectedEnospcFailsWithoutRetryPolicy) {
  const std::string source = WriteSource(GroupedDataset());
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "out");
  FailpointRegistry::Instance().ArmErrno("store.fsync", ENOSPC, /*on_hit=*/2);
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(options);
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(PipelineTest, RetryPolicyAbsorbsInjectedEnospc) {
  const std::string source = WriteSource(GroupedDataset());

  // Reference run, then a faulted run into a second directory with a
  // one-shot ENOSPC injected mid-pipeline: the per-window RetryCall must
  // re-run the failed window and still produce byte-identical output.
  pipeline::ContinuousPipelineOptions options = BaseOptions(source, "ref");
  ASSERT_TRUE(pipeline::RunContinuousPipeline(options).ok());
  const std::map<std::string, std::string> expected = PublishedBytes("ref");

  pipeline::ContinuousPipelineOptions faulted = BaseOptions(source, "out");
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::milliseconds(1);
  faulted.publish_retry = &retry;
  FailpointRegistry::Instance().ArmErrno("store.fsync", ENOSPC, /*on_hit=*/2);
  Result<pipeline::ContinuousPipelineResult> result =
      pipeline::RunContinuousPipeline(faulted);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(PublishedBytes("out"), expected);
}

}  // namespace
}  // namespace wcop
