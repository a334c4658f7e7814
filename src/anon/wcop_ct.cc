#include "anon/wcop_ct.h"

#include <algorithm>
#include <cmath>

#include "anon/agglomerative.h"
#include "anon/metrics.h"
#include "anon/translation.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/stopwatch.h"

namespace wcop {

WcopOptions ResolveOptions(const Dataset& dataset, WcopOptions options) {
  const double radius = dataset.Bounds().HalfDiagonal();
  if (options.radius_max <= 0.0) {
    options.radius_max = radius > 0.0 ? radius : 1.0;
  }
  if (options.distance.kind == DistanceConfig::Kind::kEdr) {
    if (options.distance.edr_scale <= 0.0) {
      options.distance.edr_scale = radius > 0.0 ? radius : 1.0;
    }
    if (options.distance.tolerance.dx <= 0.0) {
      // The paper's heuristic (Section 6.1): Delta = {10*delta_max,
      // 10*delta_max, 10*delta_max/avg_speed}.
      double delta_max = 0.0;
      for (const Trajectory& t : dataset.trajectories()) {
        delta_max = std::max(delta_max, t.requirement().delta);
      }
      if (delta_max <= 0.0) {
        delta_max = 0.03 * options.radius_max;
      }
      options.distance.tolerance = EdrTolerance::FromDeltaMax(
          delta_max, dataset.ComputeStats().avg_speed);
    }
  }
  return options;
}

namespace {

size_t ResolveTrashMax(const Dataset& dataset, const WcopOptions& options) {
  const size_t by_fraction = static_cast<size_t>(
      options.trash_fraction * static_cast<double>(dataset.size()));
  return std::min(options.trash_max_override, by_fraction);
}

}  // namespace

void SnapshotTelemetry(const WcopOptions& options,
                       AnonymizationReport* report) {
  telemetry::Telemetry* tel = options.telemetry;
  if (tel == nullptr) {
    return;
  }
  if (const RunContext* context = options.run_context; context != nullptr) {
    tel->metrics()
        .GetGauge("run_context.distance_computations")
        ->Set(static_cast<double>(context->distance_computations()));
    tel->metrics()
        .GetGauge("run_context.candidate_pairs")
        ->Set(static_cast<double>(context->candidate_pairs()));
  }
  tel->metrics()
      .GetGauge("failpoint.fires_total")
      ->Set(static_cast<double>(FailpointRegistry::Instance().TotalFired()));
  report->metrics = tel->metrics().Snapshot();
}

Result<AnonymizationResult> AnonymizeClusters(
    const Dataset& dataset, const ClusteringOutcome& outcome,
    const WcopOptions& resolved_options) {
  const RunContext* context = resolved_options.run_context;
  telemetry::Telemetry* tel = resolved_options.telemetry;
  WCOP_TRACE_SPAN(tel, "wcop_ct/translate");
  AnonymizationResult result;
  // A degraded clustering outcome is carried through; its clusters are
  // complete anonymity sets and are translated normally below.
  result.report.degraded = outcome.degraded;
  result.report.degraded_reason = outcome.degraded_reason;
  std::vector<size_t> trashed_indices(outcome.trash);

  // Translation phase (Algorithm 2 lines 3-11): every member of every
  // cluster is translated towards its pivot under the cluster's own delta.
  //
  // Each cluster draws from its own RNG stream derived via MixSeed from the
  // experiment seed and the cluster's index, so the random disk points a
  // cluster sees do not depend on how many draws earlier clusters consumed —
  // the published bytes are identical for any thread count (and for any
  // order of cluster completion).
  TranslationStats stats;
  std::vector<const Trajectory*> sanitized_of(dataset.size(), nullptr);
  std::vector<Trajectory> sanitized_storage;
  // Reserve exact size so pointers into the vector stay stable.
  size_t max_published = 0;
  for (const AnonymityCluster& cluster : outcome.clusters) {
    max_published += cluster.members.size();
  }
  sanitized_storage.reserve(max_published);
  result.clusters.reserve(outcome.clusters.size());

  // Serial pre-pass: failpoints, cooperative context checks, the delta
  // policy, and the suppression decision all stay on the coordinating
  // thread (in cluster order), so degradation behaviour is identical to the
  // serial path. Only clusters that survive become translation jobs.
  //
  // Once the context trips mid-translation (with allow_partial_results),
  // every remaining cluster is suppressed instead of translated, so the
  // published part still passes the independent verifier. A clustering
  // outcome that already degraded skips the context checks here: its
  // context is permanently tripped, and translating the few clusters it
  // did form is exactly the bounded remainder of the partial result.
  struct ClusterJob {
    size_t cluster_index;  ///< index into outcome.clusters (and RNG stream)
    double delta_c;
  };
  std::vector<ClusterJob> jobs;
  jobs.reserve(outcome.clusters.size());
  bool suppress_remaining = false;
  for (size_t c = 0; c < outcome.clusters.size(); ++c) {
    const AnonymityCluster& cluster = outcome.clusters[c];
    if (!suppress_remaining) {
      WCOP_FAILPOINT("anon.translate_cluster");
      // Cooperative yield point: one check per cluster.
      if (Status s = CheckRunContext(context);
          !s.ok() && !outcome.degraded) {
        if (!resolved_options.allow_partial_results) {
          return s;
        }
        suppress_remaining = true;
        result.report.degraded = true;
        result.report.degraded_reason = s.ToString();
      }
    }
    if (suppress_remaining) {
      trashed_indices.insert(trashed_indices.end(), cluster.members.begin(),
                             cluster.members.end());
      continue;
    }
    // Algorithm 2 line 5: delta_c = min member delta (the clustering phase
    // maintains that); the kMean ablation replaces it with the member mean.
    double delta_c = cluster.delta;
    AnonymityCluster published_cluster = cluster;
    if (resolved_options.delta_policy == WcopOptions::DeltaPolicy::kMean) {
      double sum = 0.0;
      for (size_t member : cluster.members) {
        sum += dataset[member].requirement().delta;
      }
      delta_c = sum / static_cast<double>(cluster.members.size());
      published_cluster.delta = delta_c;
    }
    jobs.push_back(ClusterJob{c, delta_c});
    result.clusters.push_back(std::move(published_cluster));
  }

  // Parallel translation: each job is pure given its own RNG stream and
  // writes only its own slots. Batches never observe the run context (the
  // pre-pass already made every suppression decision for this phase).
  std::vector<std::vector<Trajectory>> translated(jobs.size());
  std::vector<TranslationStats> job_stats(jobs.size());
  parallel::ParallelOptions par;
  par.threads = resolved_options.threads;
  par.grain = 1;
  par.telemetry = tel;
  Status batch = parallel::ParallelFor(
      jobs.size(),
      [&](size_t t) {
        WCOP_TRACE_SPAN(tel, "translate/cluster");
        const AnonymityCluster& cluster =
            outcome.clusters[jobs[t].cluster_index];
        const Trajectory& pivot = dataset[cluster.pivot];
        Rng rng(MixSeed(resolved_options.seed ^ 0x5DEECE66Dull,
                        jobs[t].cluster_index));
        translated[t].reserve(cluster.members.size());
        for (size_t member : cluster.members) {
          translated[t].push_back(TranslateToPivot(
              dataset[member], pivot, jobs[t].delta_c,
              resolved_options.distance.tolerance, &rng, &job_stats[t]));
        }
      },
      par);
  if (!batch.ok()) {
    return batch;
  }
  // Serial merge in cluster order: storage layout, sanitized_of pointers,
  // and stats accumulation are all order-sensitive and stay deterministic.
  for (size_t t = 0; t < jobs.size(); ++t) {
    const AnonymityCluster& cluster = outcome.clusters[jobs[t].cluster_index];
    for (size_t m = 0; m < cluster.members.size(); ++m) {
      sanitized_storage.push_back(std::move(translated[t][m]));
      sanitized_of[cluster.members[m]] = &sanitized_storage.back();
    }
    stats.Accumulate(job_stats[t]);
  }

  if (tel != nullptr) {
    telemetry::CounterAdd(tel->metrics().GetCounter("translate.created_points"),
                          stats.created_points);
    telemetry::CounterAdd(tel->metrics().GetCounter("translate.deleted_points"),
                          stats.deleted_points);
    telemetry::CounterAdd(tel->metrics().GetCounter("translate.matched_points"),
                          stats.matched_points);
    telemetry::CounterAdd(tel->metrics().GetCounter("trash.trajectories"),
                          trashed_indices.size());
  }

  result.trashed_ids.reserve(trashed_indices.size());
  for (size_t idx : trashed_indices) {
    result.trashed_ids.push_back(dataset[idx].id());
  }
  const size_t published = sanitized_storage.size();

  // Ω: the maximum translation observed; floored at radius(D) when the run
  // moved nothing, so Eq. (1) never waives the penalty for trashed
  // trajectories.
  double omega = stats.max_translation;
  if (omega <= 0.0) {
    omega = std::max(dataset.Bounds().HalfDiagonal(), 1.0);
  }

  AnonymizationReport& report = result.report;
  report.input_trajectories = dataset.size();
  report.num_clusters = result.clusters.size();
  report.trashed_trajectories = trashed_indices.size();
  for (size_t idx : trashed_indices) {
    report.trashed_points += dataset[idx].size();
  }
  report.discernibility =
      Discernibility(result.clusters, trashed_indices.size(), dataset.size());
  report.created_points = stats.created_points;
  report.deleted_points = stats.deleted_points;
  report.total_spatial_translation = stats.spatial_translation;
  report.total_temporal_translation = stats.temporal_translation;
  const double published_count =
      std::max<double>(1.0, static_cast<double>(published));
  report.avg_spatial_translation = stats.spatial_translation / published_count;
  report.avg_temporal_translation =
      stats.temporal_translation / published_count;
  report.omega = omega;
  report.ttd = TotalTranslationDistortion(dataset, sanitized_of, omega);
  report.editing_distortion = 0.0;
  report.total_distortion = report.ttd;
  report.clustering_rounds = outcome.rounds;
  report.final_radius = outcome.final_radius;

  // Publish in input order (skipping the trash) so downstream joins on id
  // order are stable.
  std::vector<Trajectory> published_trajectories;
  published_trajectories.reserve(published);
  for (size_t i = 0; i < dataset.size(); ++i) {
    if (sanitized_of[i] != nullptr) {
      published_trajectories.push_back(*sanitized_of[i]);
    }
  }
  result.sanitized = Dataset(std::move(published_trajectories));
  return result;
}

Result<AnonymizationResult> RunWcopCt(const Dataset& dataset,
                                      const WcopOptions& options) {
  WCOP_RETURN_IF_ERROR(dataset.Validate());
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot anonymize an empty dataset");
  }
  Stopwatch timer;
  const WcopOptions resolved = ResolveOptions(dataset, options);
  WCOP_TRACE_SPAN(resolved.telemetry, "wcop_ct/run");
  const size_t trash_max = ResolveTrashMax(dataset, resolved);
  Result<ClusteringOutcome> clustering =
      resolved.clustering_algo == WcopOptions::ClusteringAlgo::kAgglomerative
          ? AgglomerativeClustering(dataset, trash_max, resolved)
          : GreedyClustering(dataset, trash_max, resolved);
  if (!clustering.ok()) {
    return clustering.status();
  }
  ClusteringOutcome outcome = std::move(clustering).value();
  WCOP_ASSIGN_OR_RETURN(AnonymizationResult result,
                        AnonymizeClusters(dataset, outcome, resolved));
  result.report.runtime_seconds = timer.ElapsedSeconds();
  SnapshotTelemetry(resolved, &result.report);
  return result;
}

}  // namespace wcop
