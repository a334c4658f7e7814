#include "store/shard_runner.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "anon/checkpoint.h"
#include "anon/wcop.h"
#include "common/failpoint.h"
#include "common/fnv1a.h"
#include "common/number_codec.h"
#include "common/parallel.h"
#include "common/snapshot.h"
#include "common/stopwatch.h"

namespace wcop {
namespace store {

namespace {

// Version 2 shares the result codec with WCOP-B checkpoints; a version-1
// file fails the envelope version check and its shard recomputes.
constexpr uint32_t kShardCheckpointVersion = 2;

Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create directory " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

std::string ShardFileName(const std::string& dir, const char* stem,
                          size_t shard_index, const char* ext) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s_%05zu%s", stem, shard_index, ext);
  return dir + "/" + buf;
}

/// Everything that must match for a shard checkpoint to be replayable:
/// the shard's dataset (ids, requirements, every point) and the driver
/// options that shape its output. `threads` is deliberately excluded:
/// published bytes do not depend on the thread count.
uint64_t ShardConfigFingerprint(const Dataset& shard_dataset,
                                const WcopOptions& options) {
  Fnv1a h(DatasetFingerprint(shard_dataset));
  HashWcopOptions(&h, options);
  h.U64(options.allow_partial_results ? 1 : 0);
  return h.value();
}

struct ShardState {
  AnonymizationResult result;
  VerificationReport verification;
};

/// Checkpoint payload: the fingerprint, the verification verdict, the
/// shared result codec of anon/checkpoint.h (published trajectories, trash,
/// clusters with shard-local indices, report), the deterministic metric
/// counters and gauges (histograms hold timings and are dropped), and the
/// fixed-width end trailer. The caller zeroes runtime_seconds first: a
/// resumed merge must be deterministic.
std::string EncodeShardCheckpoint(uint64_t fingerprint,
                                  const ShardState& state) {
  std::string out;
  codec::AppendWordToken(&out, "wcop-shard-checkpoint");
  codec::AppendUintToken(&out, kShardCheckpointVersion);
  codec::EndLine(&out);
  codec::AppendWordToken(&out, "fingerprint");
  codec::AppendUintToken(&out, fingerprint);
  codec::EndLine(&out);
  codec::AppendWordToken(&out, "verification");
  codec::AppendUintToken(&out, state.verification.ok ? 1 : 0);
  codec::AppendUintToken(&out, state.verification.clusters_checked);
  codec::AppendUintToken(&out, state.verification.violations);
  codec::EndLine(&out);
  AppendAnonymizationResult(&out, state.result);
  const telemetry::MetricsSnapshot& metrics = state.result.report.metrics;
  AppendCounters(&out, metrics.counters);
  codec::AppendWordToken(&out, "ngauges");
  codec::AppendUintToken(&out, metrics.gauges.size());
  codec::EndLine(&out);
  for (const auto& [name, value] : metrics.gauges) {
    codec::AppendWordToken(&out, "gauge");
    codec::AppendBlobToken(&out, name);
    codec::AppendDoubleToken(&out, value);
    codec::EndLine(&out);
  }
  AppendEndMarker(&out);
  return out;
}

Result<ShardState> DecodeShardCheckpoint(std::string_view payload,
                                         uint64_t expected_fingerprint) {
  // Every decode failure is kDataLoss, so a damaged checkpoint falls back
  // to a recompute.
  codec::TokenScanner in(payload, "shard checkpoint");
  WCOP_RETURN_IF_ERROR(in.Expect("wcop-shard-checkpoint"));
  WCOP_ASSIGN_OR_RETURN(uint64_t codec_version, in.NextUint());
  if (codec_version != kShardCheckpointVersion) {
    return Status::DataLoss("shard checkpoint: unknown codec version");
  }
  WCOP_RETURN_IF_ERROR(in.Expect("fingerprint"));
  WCOP_ASSIGN_OR_RETURN(uint64_t fingerprint, in.NextUint());
  if (fingerprint != expected_fingerprint) {
    return Status::FailedPrecondition(
        "shard checkpoint does not match this shard/configuration");
  }
  ShardState state;
  WCOP_RETURN_IF_ERROR(in.Expect("verification"));
  WCOP_ASSIGN_OR_RETURN(state.verification.ok, in.NextBool());
  WCOP_ASSIGN_OR_RETURN(state.verification.clusters_checked, in.NextUint());
  WCOP_ASSIGN_OR_RETURN(state.verification.violations, in.NextUint());
  WCOP_RETURN_IF_ERROR(ReadAnonymizationResult(&in, &state.result));
  telemetry::MetricsSnapshot& metrics = state.result.report.metrics;
  WCOP_RETURN_IF_ERROR(ReadCounters(&in, &metrics.counters));
  WCOP_RETURN_IF_ERROR(in.Expect("ngauges"));
  WCOP_ASSIGN_OR_RETURN(size_t num_gauges, in.NextCount());
  for (size_t i = 0; i < num_gauges; ++i) {
    WCOP_RETURN_IF_ERROR(in.Expect("gauge"));
    WCOP_ASSIGN_OR_RETURN(std::string_view name, in.NextBlob());
    WCOP_ASSIGN_OR_RETURN(double value, in.NextDouble());
    metrics.gauges.emplace_back(std::string(name), value);
  }
  WCOP_RETURN_IF_ERROR(CheckEndMarker(&in, payload.size()));
  return state;
}

// ---- metrics merge -----------------------------------------------------

/// Folds metric snapshots in one pass over name-keyed maps: counters
/// summed, gauges maxed, histograms merged (count/sum/min/max exactly, the
/// percentiles as count-weighted blends — the underlying buckets are
/// gone). Finish() emits every section sorted by name.
class SnapshotFold {
 public:
  void Add(const telemetry::MetricsSnapshot& snapshot) {
    for (const auto& [name, value] : snapshot.counters) {
      counters_[name] += value;
    }
    for (const auto& [name, value] : snapshot.gauges) {
      const auto [it, inserted] = gauges_.emplace(name, value);
      if (!inserted) {
        it->second = std::max(it->second, value);
      }
    }
    for (const telemetry::HistogramSummary& h : snapshot.histograms) {
      const auto [it, inserted] = histograms_.emplace(h.name, h);
      if (!inserted) {
        MergeHistogram(&it->second, h);
      }
    }
  }

  telemetry::MetricsSnapshot Finish() && {
    telemetry::MetricsSnapshot out;
    out.counters.assign(counters_.begin(), counters_.end());
    out.gauges.assign(gauges_.begin(), gauges_.end());
    out.histograms.reserve(histograms_.size());
    for (auto& [name, h] : histograms_) {
      out.histograms.push_back(std::move(h));
    }
    return out;
  }

 private:
  static void MergeHistogram(telemetry::HistogramSummary* a,
                             const telemetry::HistogramSummary& b) {
    const double wa = static_cast<double>(a->count);
    const double wb = static_cast<double>(b.count);
    const double total = std::max(1.0, wa + wb);
    a->p50 = (a->p50 * wa + b.p50 * wb) / total;
    a->p90 = (a->p90 * wa + b.p90 * wb) / total;
    a->p99 = (a->p99 * wa + b.p99 * wb) / total;
    a->count += b.count;
    a->sum += b.sum;
    a->min = std::min(a->min, b.min);
    a->max = std::max(a->max, b.max);
    a->mean = a->count == 0 ? 0.0
                            : static_cast<double>(a->sum) /
                                  static_cast<double>(a->count);
  }

  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, telemetry::HistogramSummary> histograms_;
};

}  // namespace

void MergeReportInto(AnonymizationReport* a, const AnonymizationReport& b) {
  a->input_trajectories += b.input_trajectories;
  a->num_clusters += b.num_clusters;
  a->trashed_trajectories += b.trashed_trajectories;
  a->trashed_points += b.trashed_points;
  a->discernibility += b.discernibility;
  a->created_points += b.created_points;
  a->deleted_points += b.deleted_points;
  a->total_spatial_translation += b.total_spatial_translation;
  a->total_temporal_translation += b.total_temporal_translation;
  a->omega = std::max(a->omega, b.omega);
  a->ttd += b.ttd;
  a->editing_distortion += b.editing_distortion;
  a->total_distortion += b.total_distortion;
  a->runtime_seconds += b.runtime_seconds;
  a->clustering_rounds = std::max(a->clustering_rounds, b.clustering_rounds);
  a->final_radius = std::max(a->final_radius, b.final_radius);
  if (b.degraded && !a->degraded) {
    a->degraded = true;
    a->degraded_reason = b.degraded_reason;
  }
  // Recompute the per-published averages from the summed totals — the same
  // formula the monolithic drivers use, so a single-shard merge is exact.
  const size_t published = a->input_trajectories - a->trashed_trajectories;
  a->avg_spatial_translation =
      a->total_spatial_translation /
      static_cast<double>(std::max<size_t>(1, published));
  a->avg_temporal_translation =
      a->total_temporal_translation /
      static_cast<double>(std::max<size_t>(1, published));
  SnapshotFold fold;
  fold.Add(a->metrics);
  fold.Add(b.metrics);
  a->metrics = std::move(fold).Finish();
}

Result<ShardedRunResult> RunShardedWcopCt(const TrajectoryStoreReader& source,
                                          const ShardRunOptions& options) {
  if (source.size() == 0) {
    return Status::InvalidArgument("cannot shard an empty store");
  }
  if (options.shard_parallelism > 1 &&
      !options.stream_output_store.empty()) {
    return Status::InvalidArgument(
        "stream_output_store requires shard_parallelism == 1 (published "
        "outputs must append in shard order)");
  }
  Stopwatch wall;
  telemetry::Telemetry* parent_tel = options.wcop.telemetry;

  ShardedRunResult out;
  WCOP_ASSIGN_OR_RETURN(
      out.partition, PartitionStoreIndex(source.index(), options.partition));
  const size_t num_shards = out.partition.shards.size();

  if (!options.checkpoint_dir.empty()) {
    WCOP_RETURN_IF_ERROR(MakeDir(options.checkpoint_dir));
    // Janitor pass: a kill between write-tmp and rename of a checkpoint
    // snapshot leaves a `*.tmp` orphan behind; sweep it now, before any
    // writer is live, so crashed runs converge instead of accumulating
    // garbage.
    WCOP_RETURN_IF_ERROR(
        SweepStaleArtifacts(options.checkpoint_dir, parent_tel).status());
  }

  // Per-shard RunContext slices: parent deadline and cancellation token
  // shared, resource budget divided evenly up front (a deterministic split
  // — handing out leftovers as shards finish would make shard outcomes
  // depend on scheduling).
  std::vector<std::unique_ptr<RunContext>> contexts(num_shards);
  if (options.wcop.run_context != nullptr) {
    const RunContext* parent = options.wcop.run_context;
    for (size_t s = 0; s < num_shards; ++s) {
      contexts[s] = std::make_unique<RunContext>();
      if (parent->has_deadline()) {
        contexts[s]->set_deadline(*parent->deadline());
      }
      if (parent->cancellation_token().has_value()) {
        contexts[s]->set_cancellation_token(*parent->cancellation_token());
      }
      contexts[s]->set_trace_id(parent->trace_id());
      ResourceBudget slice = parent->budget();
      if (slice.max_distance_computations > 0) {
        slice.max_distance_computations = std::max<uint64_t>(
            1, slice.max_distance_computations / num_shards);
      }
      if (slice.max_candidate_pairs > 0) {
        slice.max_candidate_pairs =
            std::max<uint64_t>(1, slice.max_candidate_pairs / num_shards);
      }
      contexts[s]->set_budget(slice);
    }
  }
  std::vector<std::unique_ptr<telemetry::Telemetry>> shard_tels(num_shards);
  if (parent_tel != nullptr) {
    for (size_t s = 0; s < num_shards; ++s) {
      shard_tels[s] = std::make_unique<telemetry::Telemetry>();
    }
  }

  // Anonymize every shard independently over wcop::parallel.
  std::vector<ShardState> states(num_shards);
  std::vector<ShardOutcome> outcomes(num_shards);
  // Live progress: callbacks are serialized under their own mutex so the
  // sink sees strictly monotonic shards_done even with parallel shards.
  std::mutex progress_mu;
  size_t shards_done = 0;
  uint64_t progress_distance_calls = 0;
  auto report_progress = [&](size_t s_done_delta, uint64_t distance_delta) {
    if (!options.progress) {
      return;
    }
    ShardProgress p;
    std::lock_guard<std::mutex> lock(progress_mu);
    shards_done += s_done_delta;
    progress_distance_calls += distance_delta;
    p.shards_done = shards_done;
    p.shards_total = num_shards;
    p.distance_calls = progress_distance_calls;
    options.progress(p);
  };
  report_progress(0, 0);
  const int shard_parallelism = std::max(1, options.shard_parallelism);
  parallel::ParallelOptions pool;
  pool.threads = shard_parallelism;
  pool.grain = 1;
  pool.context = options.wcop.run_context;
  pool.telemetry = parent_tel;
  std::vector<Status> shard_status(num_shards, Status::OK());
  auto run_shard = [&](size_t s) -> Status {
    WCOP_TRACE_SPAN(parent_tel, "shard/run");
        WCOP_FAILPOINT("shard.run");
        const ShardSpec& shard = out.partition.shards[s];
        // The shard is a view over the source store: its members are read
        // (and CRC-checked) in place, never copied to a shard file.
        WCOP_ASSIGN_OR_RETURN(
            Dataset shard_dataset,
            source.ReadSubset(shard.members, contexts[s].get()));

        WcopOptions wcop = options.wcop;
        wcop.run_context = contexts[s].get();
        wcop.telemetry = shard_tels[s].get();
        if (shard_parallelism > 1) {
          wcop.threads = 1;  // one parallelism layer at a time
        }
        const uint64_t fingerprint =
            ShardConfigFingerprint(shard_dataset, wcop);
        const std::string ckpt_path =
            options.checkpoint_dir.empty()
                ? std::string()
                : ShardFileName(options.checkpoint_dir, "shard",
                                shard.shard_index, ".ckpt");
        outcomes[s].shard_index = shard.shard_index;
        outcomes[s].input_trajectories = shard_dataset.size();
        // Exact distance work this shard performed: the RunContext charge
        // counter when a context is attached, else the report's counter
        // (checkpoint-restored shards only have the latter).
        auto shard_distance = [&]() -> uint64_t {
          if (contexts[s] != nullptr &&
              contexts[s]->distance_computations() > 0) {
            return contexts[s]->distance_computations();
          }
          return outcomes[s].report.metrics.CounterValue("distance.calls.edr");
        };

        if (!ckpt_path.empty()) {
          Result<Snapshot> snapshot = ReadSnapshotFile(ckpt_path);
          if (snapshot.ok() &&
              snapshot->format_version == kShardCheckpointVersion) {
            Result<ShardState> restored =
                DecodeShardCheckpoint(snapshot->payload, fingerprint);
            if (restored.ok()) {
              states[s] = std::move(restored).value();
              outcomes[s].report = states[s].result.report;
              outcomes[s].verification = states[s].verification;
              outcomes[s].from_checkpoint = true;
              report_progress(1, shard_distance());
              return Status::OK();
            }
          }
          // Missing, damaged, or mismatched checkpoints all fall through
          // to a clean recompute; a torn file never poisons the run.
        }

        WCOP_ASSIGN_OR_RETURN(states[s].result,
                              RunWcopCt(shard_dataset, wcop));
        if (options.verify_shards) {
          states[s].verification =
              VerifyAnonymity(shard_dataset, states[s].result);
        } else {
          states[s].verification.ok = true;
        }
        outcomes[s].report = states[s].result.report;
        outcomes[s].verification = states[s].verification;

        if (!ckpt_path.empty()) {
          // Timings stay out of the checkpoint (the merged report's runtime
          // is the coordinator's wall clock anyway).
          states[s].result.report.runtime_seconds = 0.0;
          WCOP_RETURN_IF_ERROR(WriteSnapshotFile(
              ckpt_path, EncodeShardCheckpoint(fingerprint, states[s]),
              kShardCheckpointVersion));
          WCOP_FAILPOINT("shard.checkpoint_saved");
        }
        report_progress(1, shard_distance());
        return Status::OK();
  };
  Status run_status = parallel::ParallelFor(
      num_shards, [&](size_t s) { shard_status[s] = run_shard(s); }, pool);
  WCOP_RETURN_IF_ERROR(run_status);
  // Report per-shard failures in shard order (deterministic first error).
  for (size_t s = 0; s < num_shards; ++s) {
    WCOP_RETURN_IF_ERROR(shard_status[s]);
  }

  // Charge the parent context with what the slices consumed so the
  // caller's budget accounting matches a monolithic run.
  if (options.wcop.run_context != nullptr) {
    for (size_t s = 0; s < num_shards; ++s) {
      options.wcop.run_context->ChargeDistance(
          contexts[s]->distance_computations());
      options.wcop.run_context->ChargeCandidatePairs(
          contexts[s]->candidate_pairs());
    }
  }

  // Merge in shard order. The span owns only the merge proper and the
  // streamed output's encode + fsync; the telemetry fold has its own.
  {
    WCOP_TRACE_SPAN(parent_tel, "shard/merge");
    const bool stream_out = !options.stream_output_store.empty();
    std::unique_ptr<TrajectoryStoreWriter> out_writer;
    if (stream_out) {
      WCOP_ASSIGN_OR_RETURN(
          TrajectoryStoreWriter writer,
          TrajectoryStoreWriter::Create(options.stream_output_store));
      out_writer = std::make_unique<TrajectoryStoreWriter>(std::move(writer));
    }
    size_t input_base = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      ShardState& state = states[s];
      out.shards.push_back(std::move(outcomes[s]));
      const ShardOutcome& outcome = out.shards.back();
      if (outcome.from_checkpoint) {
        ++out.resumed_shards;
      }
      if (!outcome.verification.ok) {
        out.all_verified = false;
      }
      // Metrics are folded once, below; out.shards keeps each shard's.
      state.result.report.metrics = telemetry::MetricsSnapshot();
      if (s == 0) {
        out.merged.report = state.result.report;
      } else {
        MergeReportInto(&out.merged.report, state.result.report);
      }
      for (AnonymityCluster cluster : state.result.clusters) {
        cluster.pivot += input_base;
        for (size_t& m : cluster.members) {
          m += input_base;
        }
        out.merged.clusters.push_back(std::move(cluster));
      }
      out.merged.trashed_ids.insert(out.merged.trashed_ids.end(),
                                    state.result.trashed_ids.begin(),
                                    state.result.trashed_ids.end());
      if (stream_out) {
        for (const Trajectory& t : state.result.sanitized.trajectories()) {
          WCOP_RETURN_IF_ERROR(out_writer->Append(t));
        }
      } else {
        for (Trajectory& t : state.result.sanitized.mutable_trajectories()) {
          out.merged.sanitized.Add(std::move(t));
        }
      }
      input_base += outcome.input_trajectories;
      state.result = AnonymizationResult();  // free shard memory eagerly
    }
    if (out_writer != nullptr) {
      WCOP_RETURN_IF_ERROR(out_writer->Finish());
    }
  }
  out.merged.report.runtime_seconds = wall.ElapsedSeconds();

  WCOP_TRACE_SPAN(parent_tel, "shard/fold_telemetry");
  SnapshotFold fold;
  if (parent_tel != nullptr) {
    parent_tel->metrics().GetCounter("shard.completed")->Add(num_shards);
    parent_tel->metrics()
        .GetCounter("shard.resumed")
        ->Add(out.resumed_shards);
    fold.Add(parent_tel->metrics().Snapshot());
    for (size_t s = 0; s < num_shards; ++s) {
      fold.Add(shard_tels[s]->metrics().Snapshot());
      // Fold each shard's span buffer into the parent recorder as its own
      // trace-process lane (pid 2 + shard index; the coordinator is pid 1)
      // so the exported JSON is one coherent per-job timeline.
      parent_tel->trace().MergeFrom(
          shard_tels[s]->trace(),
          static_cast<uint32_t>(2 + out.partition.shards[s].shard_index));
    }
  } else {
    for (const ShardOutcome& shard : out.shards) {
      fold.Add(shard.report.metrics);
    }
  }
  out.merged.report.metrics = std::move(fold).Finish();
  return out;
}

}  // namespace store
}  // namespace wcop
