// Out-of-core scaling bench: anonymize a 500k-trajectory synthetic corpus
// through the sharded pipeline under a fixed memory budget, with a smaller
// peak RSS than the same run done monolithically.
//
// The corpus is generated tile by tile (independent far-apart synthetic
// cities, the shape of real multi-region trajectory releases) and streamed
// straight into a trajectory store — it is never materialized in memory.
// The sharded pipeline partitions the store index, anonymizes shard by
// shard, audits every shard, and streams the published output to a second
// store. The corpus is never held in memory as a whole, but the shard
// runner's bookkeeping still grows with n (about 0.9 KiB per trajectory at
// 125k-500k), so peak RSS is not yet independent of the corpus size.
//
// Monolithic comparison. The bench times monolithic runs on increasing
// prefixes of the same corpus, fits t = c * n^b by log-log least squares,
// and reports the growth exponent b with the extrapolated full-scale time.
// Greedy clustering is output-sensitive, so b is close to 1 and the
// monolithic run is not slower than the sharded one. What sharding
// still buys is memory: the bench also anonymizes the whole corpus
// monolithically in a child process (this binary re-executed with
// --monolithic-store=) and reads that child's peak RSS.
//
// Gates (non-zero exit): peak RSS above --rss-budget-mb, or a sharded
// peak RSS that is not below the monolithic child's peak RSS.
//
// Usage:
//   ./shard_scaling [--trajectories=500000] [--rss-budget-mb=2048]
//                   [--store=shard_scaling.wst] [--keep-store]
//                   [--json-out=FILE]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "anon/wcop.h"
#include "bench_util.h"
#include "common/arg_parser.h"
#include "common/stopwatch.h"
#include "data/synthetic.h"
#include "store/partitioner.h"
#include "store/shard_runner.h"
#include "store/store_file.h"

using namespace wcop;
using bench::JsonOut;

namespace {

constexpr size_t kPerTile = 125;       // trajectories per synthetic city
constexpr size_t kPointsPerTraj = 8;   // short tracks keep EDR cheap
constexpr double kTileSpacing = 200000.0;  // metres between city origins

// Peak resident set (VmHWM) in MiB from /proc/self/status; 0 off Linux.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

SyntheticOptions TileOptions(uint64_t seed) {
  SyntheticOptions options;
  options.seed = seed;
  options.num_users = kPerTile / 3 + 1;
  options.num_trajectories = kPerTile;
  options.points_per_trajectory = kPointsPerTraj;
  options.sampling_interval = 60.0;
  options.region_half_diagonal = 6000.0;
  options.num_hubs = 5;
  options.num_routes = 4;
  options.dataset_duration_days = 10.0;
  return options;
}

// Generates tile `tile` of the corpus (the same derivation for the
// streaming writer and the monolithic-prefix runs, so both paths see the
// exact same data).
Result<Dataset> MakeTile(size_t tile, size_t grid_dim) {
  Dataset city;
  WCOP_ASSIGN_OR_RETURN(
      city, GenerateSyntheticGeoLife(
                TileOptions(7 + 0x9e3779b97f4a7c15ull * (tile + 1))));
  Rng rng(1000 + tile);
  AssignUniformRequirements(&city, 2, 5, 10.0, 200.0, &rng);
  const double dx = static_cast<double>(tile % grid_dim) * kTileSpacing;
  const double dy = static_cast<double>(tile / grid_dim) * kTileSpacing;
  const int64_t id_base = static_cast<int64_t>(tile * kPerTile);
  for (Trajectory& t : city.mutable_trajectories()) {
    for (Point& p : t.mutable_points()) {
      p.x += dx;
      p.y += dy;
    }
    t.set_id(id_base + t.id());
    t.set_object_id(id_base + t.object_id());
  }
  return city;
}

// Child mode: anonymizes the whole store in this process and exits 0 on
// success, so the parent's rusage sees exactly the monolithic footprint.
int RunMonolithic(const std::string& store_path) {
  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(store_path);
  if (!reader.ok()) {
    return 1;
  }
  Result<Dataset> dataset = reader->ReadAll();
  if (!dataset.ok()) {
    return 1;
  }
  WcopOptions mono;
  mono.seed = 7;
  mono.threads = 1;
  return RunWcopCt(*dataset, mono).ok() ? 0 : 1;
}

struct ChildRun {
  bool ok = false;
  double seconds = 0.0;
  double peak_rss_mb = 0.0;
};

// Runs RunMonolithic in a fresh process (this binary, re-executed) and
// returns its wall time and peak RSS. The bench is single-threaded here, so
// fork + exec is safe.
ChildRun RunMonolithicChild(const std::string& store_path) {
  const std::string flag = "--monolithic-store=" + store_path;
  ChildRun run;
  Stopwatch watch;
  const pid_t pid = fork();
  if (pid == 0) {
    execl("/proc/self/exe", "shard_scaling", flag.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid) {
    return run;
  }
  run.seconds = watch.ElapsedSeconds();
  struct rusage usage;
  getrusage(RUSAGE_CHILDREN, &usage);
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.Has("monolithic-store")) {
    return RunMonolithic(args.GetString("monolithic-store", ""));
  }
  const size_t total =
      static_cast<size_t>(args.GetInt("trajectories", 500000));
  const double rss_budget_mb = args.GetDouble("rss-budget-mb", 2048.0);
  const std::string store_path =
      args.GetString("store", "shard_scaling.wst");
  const std::string out_store_path = store_path + ".out";
  JsonOut json_out(args);

  const size_t tiles = (total + kPerTile - 1) / kPerTile;
  size_t grid_dim = 1;
  while (grid_dim * grid_dim < tiles) {
    ++grid_dim;
  }

  bench::PrintHeader("Out-of-core sharded scaling (WCOP-CT)");
  std::printf("corpus: %zu trajectories (%zu tiles x %zu, %zu points each), "
              "RSS budget %.0f MiB\n",
              tiles * kPerTile, tiles, kPerTile, kPointsPerTraj,
              rss_budget_mb);

  // ---- Stream-generate the corpus into the store: one tile in memory. --
  Stopwatch gen_watch;
  {
    Result<store::TrajectoryStoreWriter> writer =
        store::TrajectoryStoreWriter::Create(store_path);
    if (!writer.ok()) {
      std::fprintf(stderr, "store create failed: %s\n",
                   writer.status().ToString().c_str());
      return 1;
    }
    for (size_t tile = 0; tile < tiles; ++tile) {
      Result<Dataset> city = MakeTile(tile, grid_dim);
      if (!city.ok()) {
        std::fprintf(stderr, "tile %zu failed: %s\n", tile,
                     city.status().ToString().c_str());
        return 1;
      }
      for (const Trajectory& t : city->trajectories()) {
        Status s = writer->Append(t);
        if (!s.ok()) {
          std::fprintf(stderr, "append failed: %s\n", s.ToString().c_str());
          return 1;
        }
      }
      if ((tile + 1) % 200 == 0) {
        std::printf("  generated %zu / %zu tiles (%.1fs, RSS %.0f MiB)\n",
                    tile + 1, tiles, gen_watch.ElapsedSeconds(),
                    PeakRssMb());
      }
    }
    Status s = writer->Finish();
    if (!s.ok()) {
      std::fprintf(stderr, "store finish failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  const double gen_seconds = gen_watch.ElapsedSeconds();
  std::printf("generated + stored in %.1fs (%ju bytes)\n", gen_seconds,
              static_cast<uintmax_t>(
                  std::filesystem::file_size(store_path)));

  Result<store::TrajectoryStoreReader> reader =
      store::TrajectoryStoreReader::Open(store_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }

  // ---- Sharded run: stream the published output to a second store. -----
  telemetry::Telemetry telemetry;
  store::ShardRunOptions run;
  run.wcop.seed = 7;
  run.wcop.threads = 1;
  run.wcop.telemetry = &telemetry;
  run.partition.target_shard_size = 256;
  run.partition.max_shard_size = 512;
  run.stream_output_store = out_store_path;
  Stopwatch shard_watch;
  Result<store::ShardedRunResult> sharded = RunShardedWcopCt(*reader, run);
  const double sharded_seconds = shard_watch.ElapsedSeconds();
  if (!sharded.ok()) {
    std::fprintf(stderr, "sharded run failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  const double peak_rss_mb = PeakRssMb();
  std::printf("sharded: %zu shards, %.1fs, verified %s, peak RSS %.0f MiB "
              "(budget %.0f)\n",
              sharded->partition.shards.size(), sharded_seconds,
              sharded->all_verified ? "clean" : "FAILED", peak_rss_mb,
              rss_budget_mb);
  if (!sharded->all_verified) {
    std::fprintf(stderr, "FAIL: a shard failed its anonymity audit\n");
    return 1;
  }

  // ---- Monolithic prefixes: time t(n), fit t = c * n^b, extrapolate. ---
  std::vector<std::pair<size_t, double>> prefix_times;
  for (const size_t prefix : {size_t{2000}, size_t{4000}, size_t{8000}}) {
    if (prefix > reader->size()) {
      break;
    }
    Dataset subset;
    for (size_t i = 0; i < prefix; ++i) {
      Result<Trajectory> t = reader->Read(i);
      if (!t.ok()) {
        std::fprintf(stderr, "read failed: %s\n",
                     t.status().ToString().c_str());
        return 1;
      }
      subset.Add(std::move(*t));
    }
    WcopOptions mono;
    mono.seed = 7;
    mono.threads = 1;
    Stopwatch watch;
    Result<AnonymizationResult> r = RunWcopCt(subset, mono);
    const double seconds = watch.ElapsedSeconds();
    if (!r.ok()) {
      std::fprintf(stderr, "monolithic %zu failed: %s\n", prefix,
                   r.status().ToString().c_str());
      return 1;
    }
    std::printf("monolithic prefix %zu: %.2fs\n", prefix, seconds);
    prefix_times.emplace_back(prefix, seconds);
  }
  if (prefix_times.size() < 2) {
    std::fprintf(stderr, "corpus too small for the monolithic fit\n");
    return 1;
  }
  // Least squares on (log n, log t): the slope is the growth exponent b.
  double sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_xy = 0.0;
  for (const auto& [prefix, seconds] : prefix_times) {
    const double x = std::log(static_cast<double>(prefix));
    const double y = std::log(std::max(seconds, 1e-9));
    sum_x += x;
    sum_y += y;
    sum_xx += x * x;
    sum_xy += x * y;
  }
  const double samples = static_cast<double>(prefix_times.size());
  const double fit_b = (samples * sum_xy - sum_x * sum_y) /
                       (samples * sum_xx - sum_x * sum_x);
  const double fit_log_c = (sum_y - fit_b * sum_x) / samples;
  const double n = static_cast<double>(reader->size());
  const double mono_extrapolated = std::exp(fit_log_c + fit_b * std::log(n));
  const double speedup = mono_extrapolated / sharded_seconds;
  std::printf("monolithic fit t = c*n^b: b = %.2f; extrapolated %.1fs at "
              "n=%zu — %.1fx the sharded wall time\n",
              fit_b, mono_extrapolated, reader->size(), speedup);

  // ---- Full-scale monolithic run in a child: its peak RSS. -------------
  const ChildRun mono_full = RunMonolithicChild(store_path);
  if (!mono_full.ok) {
    std::fprintf(stderr, "monolithic child run failed\n");
    return 1;
  }
  std::printf("monolithic full run (child): %.1fs, peak RSS %.0f MiB — "
              "sharded peak is %.2fx of it\n",
              mono_full.seconds, mono_full.peak_rss_mb,
              peak_rss_mb / mono_full.peak_rss_mb);

  for (const auto& [prefix, seconds] : prefix_times) {
    json_out.Add("shard_scaling/monolithic_prefix",
                 {{"trajectories", static_cast<double>(prefix)},
                  {"points", static_cast<double>(kPointsPerTraj)}},
                 seconds, {});
  }
  json_out.Add(
      "shard_scaling/sharded",
      {{"trajectories", n},
       {"points", static_cast<double>(kPointsPerTraj)},
       {"shards", static_cast<double>(sharded->partition.shards.size())},
       {"published",
        static_cast<double>(sharded->merged.report.input_trajectories -
                            sharded->merged.report.trashed_trajectories)},
       {"clusters", static_cast<double>(sharded->merged.report.num_clusters)},
       {"all_verified", sharded->all_verified ? 1.0 : 0.0},
       {"generate_seconds", gen_seconds},
       {"peak_rss_mb", peak_rss_mb},
       {"rss_budget_mb", rss_budget_mb},
       {"monolithic_growth_exponent", fit_b},
       {"monolithic_extrapolated_seconds", mono_extrapolated},
       {"speedup_vs_monolithic", speedup},
       {"monolithic_seconds", mono_full.seconds},
       {"monolithic_peak_rss_mb", mono_full.peak_rss_mb}},
      sharded_seconds, sharded->merged.report.metrics);
  if (!json_out.Flush()) {
    return 1;
  }

  if (!args.GetBool("keep-store", false)) {
    std::filesystem::remove(store_path);
    std::filesystem::remove(out_store_path);
  }
  if (peak_rss_mb > rss_budget_mb) {
    std::fprintf(stderr, "FAIL: peak RSS %.0f MiB exceeds budget %.0f MiB\n",
                 peak_rss_mb, rss_budget_mb);
    return 1;
  }
  if (peak_rss_mb >= mono_full.peak_rss_mb) {
    std::fprintf(stderr,
                 "FAIL: sharded peak RSS %.0f MiB not below the monolithic "
                 "run's %.0f MiB\n",
                 peak_rss_mb, mono_full.peak_rss_mb);
    return 1;
  }
  std::printf("PASS: %zu trajectories sharded within %.0f MiB, %.2fx the "
              "monolithic peak RSS (%.0f MiB)\n",
              reader->size(), rss_budget_mb,
              peak_rss_mb / mono_full.peak_rss_mb, mono_full.peak_rss_mb);
  return 0;
}
