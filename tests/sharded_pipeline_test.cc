#include "store/shard_runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "anon/wcop.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "data/synthetic.h"
#include "store/store_file.h"
#include "test_util.h"

namespace wcop {
namespace store {
namespace {

using testing_util::SmallSynthetic;

std::string TempDirFor(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Four far-apart synthetic cities: the input shape the partitioner can
// actually split (one dense city collapses to a single shard by design).
Dataset TiledDataset(size_t tiles = 4, size_t per_tile = 20) {
  SyntheticOptions options;
  options.seed = 21;
  options.num_users = 8;
  options.num_trajectories = per_tile;
  options.points_per_trajectory = 24;
  options.sampling_interval = 10.0;
  options.region_half_diagonal = 6000.0;
  options.num_hubs = 5;
  options.num_routes = 4;
  options.dataset_duration_days = 10.0;
  Dataset dataset =
      GenerateTiledSyntheticGeoLife(options, tiles, 200000.0).value();
  Rng rng(22);
  AssignUniformRequirements(&dataset, 2, 4, 10.0, 200.0, &rng);
  return dataset;
}

void ExpectTrajectoriesIdentical(const Trajectory& a, const Trajectory& b) {
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.object_id(), b.object_id());
  EXPECT_EQ(a.parent_id(), b.parent_id());
  EXPECT_EQ(a.requirement().k, b.requirement().k);
  EXPECT_EQ(a.requirement().delta, b.requirement().delta);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Bitwise: the determinism and byte-identity guarantees are exact.
    EXPECT_EQ(a.points()[i].x, b.points()[i].x) << i;
    EXPECT_EQ(a.points()[i].y, b.points()[i].y) << i;
    EXPECT_EQ(a.points()[i].t, b.points()[i].t) << i;
  }
}

void ExpectDatasetsIdentical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectTrajectoriesIdentical(a[i], b[i]);
  }
}

// Everything except runtime_seconds and the metrics snapshot (wall times).
void ExpectReportsEqualMinusTimings(const AnonymizationReport& a,
                                    const AnonymizationReport& b) {
  EXPECT_EQ(a.input_trajectories, b.input_trajectories);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
  EXPECT_EQ(a.trashed_trajectories, b.trashed_trajectories);
  EXPECT_EQ(a.trashed_points, b.trashed_points);
  EXPECT_EQ(a.discernibility, b.discernibility);
  EXPECT_EQ(a.created_points, b.created_points);
  EXPECT_EQ(a.deleted_points, b.deleted_points);
  EXPECT_EQ(a.total_spatial_translation, b.total_spatial_translation);
  EXPECT_EQ(a.total_temporal_translation, b.total_temporal_translation);
  EXPECT_EQ(a.avg_spatial_translation, b.avg_spatial_translation);
  EXPECT_EQ(a.avg_temporal_translation, b.avg_temporal_translation);
  EXPECT_EQ(a.omega, b.omega);
  EXPECT_EQ(a.ttd, b.ttd);
  EXPECT_EQ(a.editing_distortion, b.editing_distortion);
  EXPECT_EQ(a.total_distortion, b.total_distortion);
  EXPECT_EQ(a.clustering_rounds, b.clustering_rounds);
  EXPECT_EQ(a.final_radius, b.final_radius);
  EXPECT_EQ(a.degraded, b.degraded);
}

TEST(ShardedPipelineTest, SingleShardIsByteIdenticalToMonolithic) {
  const Dataset dataset = SmallSynthetic(36, 24);
  const std::string store_path = TempPath("shard_single.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, store_path).ok());
  Result<TrajectoryStoreReader> reader =
      TrajectoryStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  WcopOptions wcop;
  wcop.seed = 9;
  Result<AnonymizationResult> mono = RunWcopCt(dataset, wcop);
  ASSERT_TRUE(mono.ok()) << mono.status();

  ShardRunOptions run;
  run.wcop = wcop;
  run.partition.num_shards = 1;
  Result<ShardedRunResult> sharded = RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  ASSERT_EQ(sharded->partition.shards.size(), 1u);
  EXPECT_TRUE(sharded->all_verified);
  ExpectDatasetsIdentical(mono->sanitized, sharded->merged.sanitized);
  ExpectReportsEqualMinusTimings(mono->report, sharded->merged.report);
  EXPECT_EQ(mono->trashed_ids, sharded->merged.trashed_ids);
  ASSERT_EQ(mono->clusters.size(), sharded->merged.clusters.size());
  for (size_t i = 0; i < mono->clusters.size(); ++i) {
    EXPECT_EQ(mono->clusters[i].pivot, sharded->merged.clusters[i].pivot);
    EXPECT_EQ(mono->clusters[i].members,
              sharded->merged.clusters[i].members);
    EXPECT_EQ(mono->clusters[i].k, sharded->merged.clusters[i].k);
    EXPECT_EQ(mono->clusters[i].delta, sharded->merged.clusters[i].delta);
  }
  std::filesystem::remove(store_path);
}

TEST(ShardedPipelineTest, MultiShardRunsVerifierCleanAndComplete) {
  const Dataset dataset = TiledDataset();
  const std::string store_path = TempPath("shard_multi.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, store_path).ok());
  Result<TrajectoryStoreReader> reader =
      TrajectoryStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  ShardRunOptions run;
  run.wcop.seed = 9;
  run.partition.num_shards = 4;
  Result<ShardedRunResult> r = RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(r.ok()) << r.status();

  EXPECT_GT(r->partition.shards.size(), 1u);
  EXPECT_TRUE(r->all_verified);
  size_t shard_inputs = 0;
  for (const ShardOutcome& shard : r->shards) {
    EXPECT_TRUE(shard.verification.ok)
        << "shard " << shard.shard_index << " failed its audit";
    shard_inputs += shard.input_trajectories;
  }
  EXPECT_EQ(shard_inputs, dataset.size());
  // Published + trashed covers the whole input: nothing silently dropped.
  EXPECT_EQ(r->merged.sanitized.size() + r->merged.trashed_ids.size(),
            dataset.size());
  EXPECT_EQ(r->merged.report.input_trajectories, dataset.size());
  // Cluster member indices were remapped into the concatenated input
  // order: every index must be in range and used at most once.
  std::vector<bool> used(dataset.size(), false);
  for (const AnonymityCluster& cluster : r->merged.clusters) {
    for (size_t m : cluster.members) {
      ASSERT_LT(m, dataset.size());
      EXPECT_FALSE(used[m]);
      used[m] = true;
    }
  }
  std::filesystem::remove(store_path);
}

TEST(ShardedPipelineTest, ProgressCallbackIsMonotoneAndComplete) {
  const Dataset dataset = TiledDataset();
  const std::string store_path = TempPath("shard_progress.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, store_path).ok());
  Result<TrajectoryStoreReader> reader =
      TrajectoryStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  // Distance accounting flows into ShardProgress via the per-shard
  // RunContext children, so attach a context like the service does.
  RunContext ctx;
  ShardRunOptions run;
  run.wcop.seed = 9;
  run.wcop.run_context = &ctx;
  run.partition.num_shards = 4;
  std::vector<ShardProgress> updates;
  run.progress = [&updates](const ShardProgress& p) {
    updates.push_back(p);
  };
  Result<ShardedRunResult> r = RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(r.ok()) << r.status();

  // One up-front (0, total, 0) report plus one per shard, all monotone.
  const size_t shards = r->partition.shards.size();
  ASSERT_EQ(updates.size(), shards + 1);
  EXPECT_EQ(updates.front().shards_done, 0u);
  EXPECT_EQ(updates.front().distance_calls, 0u);
  for (size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(updates[i].shards_total, shards);
    EXPECT_EQ(updates[i].shards_done, i);
    if (i > 0) {
      EXPECT_GE(updates[i].distance_calls, updates[i - 1].distance_calls);
    }
  }
  EXPECT_EQ(updates.back().shards_done, shards);
  EXPECT_GT(updates.back().distance_calls, 0u);
  std::filesystem::remove(store_path);
}

TEST(ShardedPipelineTest, ShardSpansMergeIntoParentTelemetry) {
  const Dataset dataset = TiledDataset();
  const std::string store_path = TempPath("shard_spans.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, store_path).ok());
  Result<TrajectoryStoreReader> reader =
      TrajectoryStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  telemetry::Telemetry tel;
  tel.trace().set_trace_id("wcop-job-feedfacefeedface");
  RunContext ctx;
  ctx.set_trace_id("wcop-job-feedfacefeedface");

  ShardRunOptions run;
  run.wcop.seed = 9;
  run.wcop.run_context = &ctx;
  run.wcop.telemetry = &tel;
  run.partition.num_shards = 4;
  Result<ShardedRunResult> r = RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r->partition.shards.size(), 1u);

  // The parent recorder holds span lanes from at least two distinct shards
  // (pid = 2 + shard_index; the coordinator records under pid 1).
  std::set<uint32_t> pids;
  for (const telemetry::TraceEvent& event : tel.trace().Events()) {
    pids.insert(event.pid);
  }
  size_t shard_lanes = 0;
  for (uint32_t pid : pids) {
    shard_lanes += pid >= 2;
  }
  EXPECT_GE(shard_lanes, 2u) << "expected spans from >= 2 shards";
  EXPECT_NE(tel.trace().ToChromeTraceJson().find(
                "\"traceId\":\"wcop-job-feedfacefeedface\""),
            std::string::npos);
  std::filesystem::remove(store_path);
}

TEST(ShardedPipelineTest, DeterministicAcrossThreadCounts) {
  const Dataset dataset = TiledDataset();
  const std::string store_path = TempPath("shard_threads.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, store_path).ok());
  Result<TrajectoryStoreReader> reader =
      TrajectoryStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  ShardRunOptions serial;
  serial.wcop.seed = 9;
  serial.wcop.threads = 1;
  serial.partition.num_shards = 4;
  Result<ShardedRunResult> a = RunShardedWcopCt(*reader, serial);
  ASSERT_TRUE(a.ok()) << a.status();

  ShardRunOptions threaded = serial;
  threaded.wcop.threads = 4;
  Result<ShardedRunResult> b = RunShardedWcopCt(*reader, threaded);
  ASSERT_TRUE(b.ok()) << b.status();

  ExpectDatasetsIdentical(a->merged.sanitized, b->merged.sanitized);
  ExpectReportsEqualMinusTimings(a->merged.report, b->merged.report);
  EXPECT_EQ(a->merged.trashed_ids, b->merged.trashed_ids);

  // Shard-level parallelism must not change the output either: concurrent
  // shards read through the one shared reader, and the published store
  // bytes are identical.
  ShardRunOptions shard_par = serial;
  shard_par.shard_parallelism = 3;
  Result<ShardedRunResult> c = RunShardedWcopCt(*reader, shard_par);
  ASSERT_TRUE(c.ok()) << c.status();
  ExpectDatasetsIdentical(a->merged.sanitized, c->merged.sanitized);
  ExpectReportsEqualMinusTimings(a->merged.report, c->merged.report);
  EXPECT_EQ(a->merged.trashed_ids, c->merged.trashed_ids);
  const std::string out_a = TempPath("shard_threads.a.wst");
  const std::string out_c = TempPath("shard_threads.c.wst");
  ASSERT_TRUE(WriteDatasetStore(a->merged.sanitized, out_a).ok());
  ASSERT_TRUE(WriteDatasetStore(c->merged.sanitized, out_c).ok());
  EXPECT_TRUE(FileBytes(out_a) == FileBytes(out_c));
  std::filesystem::remove(out_a);
  std::filesystem::remove(out_c);
  std::filesystem::remove(store_path);
}

TEST(ShardedPipelineTest, CheckpointResumeSkipsCompletedShards) {
  const Dataset dataset = TiledDataset();
  const std::string store_path = TempPath("shard_ckpt.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, store_path).ok());
  Result<TrajectoryStoreReader> reader =
      TrajectoryStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  ShardRunOptions run;
  run.wcop.seed = 9;
  run.partition.num_shards = 4;
  run.checkpoint_dir = TempDirFor("shard_ckpt.ckpts");
  Result<ShardedRunResult> first = RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->resumed_shards, 0u);
  const size_t num_shards = first->partition.shards.size();
  ASSERT_GT(num_shards, 1u);

  // Second run resumes every shard from its checkpoint, bit-for-bit.
  Result<ShardedRunResult> second = RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->resumed_shards, num_shards);
  ExpectDatasetsIdentical(first->merged.sanitized,
                          second->merged.sanitized);
  ExpectReportsEqualMinusTimings(first->merged.report,
                                 second->merged.report);
  EXPECT_EQ(first->merged.trashed_ids, second->merged.trashed_ids);

  // Corrupt one checkpoint: that shard recomputes cleanly, others resume.
  const std::string victim = run.checkpoint_dir + "/shard_00001.ckpt";
  {
    std::fstream f(victim,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good()) << victim;
    f.seekg(0, std::ios::end);
    const auto size = f.tellg();
    f.seekp(static_cast<std::streamoff>(size) / 2);
    f.put('\xff');
  }
  Result<ShardedRunResult> third = RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(third->resumed_shards, num_shards - 1);
  ExpectDatasetsIdentical(first->merged.sanitized, third->merged.sanitized);
  ExpectReportsEqualMinusTimings(first->merged.report,
                                 third->merged.report);

  // A changed option invalidates the fingerprints: nothing resumes.
  ShardRunOptions reseeded = run;
  reseeded.wcop.seed = 10;
  Result<ShardedRunResult> fourth = RunShardedWcopCt(*reader, reseeded);
  ASSERT_TRUE(fourth.ok()) << fourth.status();
  EXPECT_EQ(fourth->resumed_shards, 0u);

  std::filesystem::remove(store_path);
  std::filesystem::remove_all(run.checkpoint_dir);
}

TEST(ShardedPipelineTest, StreamedOutputMatchesInMemoryMerge) {
  const Dataset dataset = TiledDataset();
  const std::string store_path = TempPath("shard_stream.wst");
  ASSERT_TRUE(WriteDatasetStore(dataset, store_path).ok());
  Result<TrajectoryStoreReader> reader =
      TrajectoryStoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  ShardRunOptions run;
  run.wcop.seed = 9;
  run.partition.num_shards = 4;
  Result<ShardedRunResult> in_memory = RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();

  ShardRunOptions streamed = run;
  streamed.stream_output_store = TempPath("shard_stream.out.wst");
  Result<ShardedRunResult> r = RunShardedWcopCt(*reader, streamed);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->merged.sanitized.empty());  // streamed to disk instead
  ExpectReportsEqualMinusTimings(in_memory->merged.report,
                                 r->merged.report);

  Result<TrajectoryStoreReader> out =
      TrajectoryStoreReader::Open(streamed.stream_output_store);
  ASSERT_TRUE(out.ok()) << out.status();
  Result<Dataset> published = out->ReadAll();
  ASSERT_TRUE(published.ok()) << published.status();
  ExpectDatasetsIdentical(in_memory->merged.sanitized, *published);

  // Streaming requires serial shard execution by contract.
  ShardRunOptions bad = streamed;
  bad.shard_parallelism = 2;
  EXPECT_EQ(RunShardedWcopCt(*reader, bad).status().code(),
            StatusCode::kInvalidArgument);

  std::filesystem::remove(store_path);
  std::filesystem::remove(streamed.stream_output_store);
}

// ---------------------------------------------------------------------------
// Shards are views over the source store, not copies.
// ---------------------------------------------------------------------------

std::set<std::string> ListTree(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    names.insert(std::filesystem::relative(entry.path(), dir).string());
  }
  return names;
}

TEST(ShardedPipelineTest, RunWritesOnlyCheckpointsAndStreamedOutput) {
  const std::string dir = TempDirFor("shard_views");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteDatasetStore(TiledDataset(), dir + "/source.wst").ok());
  Result<TrajectoryStoreReader> reader =
      TrajectoryStoreReader::Open(dir + "/source.wst");
  ASSERT_TRUE(reader.ok()) << reader.status();

  ShardRunOptions run;
  run.wcop.seed = 9;
  run.partition.num_shards = 4;
  run.checkpoint_dir = dir + "/ckpt";
  run.stream_output_store = dir + "/published.wst";
  // Everything on disk while shards are running, sampled after each one.
  std::set<std::string> seen_mid_run;
  run.progress = [&](const ShardProgress&) {
    const std::set<std::string> now = ListTree(dir);
    seen_mid_run.insert(now.begin(), now.end());
  };
  Result<ShardedRunResult> r = RunShardedWcopCt(*reader, run);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r->partition.shards.size(), 1u);

  std::set<std::string> expected = {"source.wst", "ckpt", "published.wst"};
  for (const ShardSpec& shard : r->partition.shards) {
    char name[32];
    std::snprintf(name, sizeof(name), "ckpt/shard_%05zu.ckpt",
                  shard.shard_index);
    expected.insert(name);
  }
  EXPECT_EQ(ListTree(dir), expected);
  for (const std::string& name : seen_mid_run) {
    EXPECT_EQ(expected.count(name), 1u) << "stray file mid-run: " << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedPipelineTest, BitFlipInOneShardBlockFailsWithDataLoss) {
  const std::string path = TempPath("shard_flip.wst");
  ASSERT_TRUE(WriteDatasetStore(TiledDataset(), path).ok());
  Result<TrajectoryStoreReader> clean = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(clean.ok()) << clean.status();
  PartitionOptions partition;
  partition.num_shards = 4;
  Result<Partition> shards = PartitionStoreIndex(clean->index(), partition);
  ASSERT_TRUE(shards.ok()) << shards.status();
  ASSERT_GT(shards->shards.size(), 1u);
  // Damage a block of the last shard, so earlier shards run cleanly first.
  const size_t victim = shards->shards.back().members.back();
  const StoreEntry entry = clean->index()[victim];
  std::string bytes = FileBytes(path);
  bytes[entry.offset + entry.block_size / 2] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  Result<TrajectoryStoreReader> reader = TrajectoryStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();  // the index is intact

  for (const int parallelism : {1, 3}) {
    ShardRunOptions run;
    run.wcop.seed = 9;
    run.partition = partition;
    run.shard_parallelism = parallelism;
    Result<ShardedRunResult> r = RunShardedWcopCt(*reader, run);
    ASSERT_FALSE(r.ok()) << "parallelism " << parallelism;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss)
        << "parallelism " << parallelism << ": " << r.status();
  }
  std::filesystem::remove(path);
}

TEST(ShardedPipelineTest, MergeReportSumsAndRecomputesAverages) {
  AnonymizationReport a;
  a.input_trajectories = 10;
  a.trashed_trajectories = 2;
  a.num_clusters = 3;
  a.total_spatial_translation = 80.0;
  a.total_temporal_translation = 16.0;
  a.omega = 2.0;
  a.clustering_rounds = 4;
  AnonymizationReport b;
  b.input_trajectories = 6;
  b.trashed_trajectories = 0;
  b.num_clusters = 2;
  b.total_spatial_translation = 20.0;
  b.total_temporal_translation = 4.0;
  b.omega = 5.0;
  b.clustering_rounds = 2;
  b.degraded = true;
  b.degraded_reason = "budget";
  // Metrics: counters summed, gauges maxed, histograms merged exactly in
  // count/sum/min/max and count-weighted in the percentiles; every section
  // comes back sorted by name whatever the input order.
  a.metrics.counters = {{"z.calls", 5}, {"a.calls", 1}};
  a.metrics.gauges = {{"g.peak", 2.0}};
  telemetry::HistogramSummary ha;
  ha.name = "h.ns";
  ha.count = 1;
  ha.sum = 10;
  ha.min = ha.max = 10;
  ha.p50 = ha.p90 = ha.p99 = 10.0;
  a.metrics.histograms = {ha};
  b.metrics.counters = {{"a.calls", 2}, {"m.calls", 7}};
  b.metrics.gauges = {{"g.peak", 9.0}, {"b.level", 1.0}};
  telemetry::HistogramSummary hb = ha;
  hb.count = 3;
  hb.sum = 90;
  hb.min = hb.max = 30;
  hb.p50 = hb.p90 = hb.p99 = 30.0;
  b.metrics.histograms = {hb};
  MergeReportInto(&a, b);
  using Counters = std::vector<std::pair<std::string, uint64_t>>;
  using Gauges = std::vector<std::pair<std::string, double>>;
  EXPECT_EQ(a.metrics.counters,
            (Counters{{"a.calls", 3}, {"m.calls", 7}, {"z.calls", 5}}));
  EXPECT_EQ(a.metrics.gauges, (Gauges{{"b.level", 1.0}, {"g.peak", 9.0}}));
  ASSERT_EQ(a.metrics.histograms.size(), 1u);
  const telemetry::HistogramSummary& h = a.metrics.histograms[0];
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 100u);
  EXPECT_EQ(h.min, 10u);
  EXPECT_EQ(h.max, 30u);
  EXPECT_DOUBLE_EQ(h.mean, 25.0);
  EXPECT_DOUBLE_EQ(h.p50, 25.0);
  EXPECT_EQ(a.input_trajectories, 16u);
  EXPECT_EQ(a.num_clusters, 5u);
  EXPECT_EQ(a.trashed_trajectories, 2u);
  // Averages recomputed over the merged survivors (16 - 2 = 14), exactly
  // the monolithic formula.
  EXPECT_DOUBLE_EQ(a.avg_spatial_translation, 100.0 / 14.0);
  EXPECT_DOUBLE_EQ(a.avg_temporal_translation, 20.0 / 14.0);
  EXPECT_EQ(a.omega, 5.0);
  EXPECT_EQ(a.clustering_rounds, 4u);
  EXPECT_TRUE(a.degraded);
  EXPECT_EQ(a.degraded_reason, "budget");
}

}  // namespace
}  // namespace store
}  // namespace wcop
