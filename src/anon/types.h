#ifndef WCOP_ANON_TYPES_H_
#define WCOP_ANON_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/telemetry.h"
#include "distance/edr.h"
#include "traj/dataset.h"

namespace wcop {

/// Which trajectory distance drives the greedy clustering.
///
/// The paper's WCOP-CT (like W4M) clusters by time-tolerant EDR; the NWA
/// baseline clusters by synchronized Euclidean distance. EDR counts edit
/// operations, so to compare it against the metric radius_max threshold of
/// Algorithm 3 we use *normalized* EDR (ops / max length, in [0,1]) scaled
/// by `edr_scale` — the drivers default that scale to radius(D), giving
/// "fraction of the dataset radius" semantics: identical trajectories are at
/// distance 0, completely unalignable ones at radius(D). EDR with a positive
/// scale is what switches the clustering loops onto the lower-bound cascade
/// (DESIGN.md "Distance engine: filter-and-refine").
struct DistanceConfig {
  enum class Kind { kEdr, kSynchronizedEuclidean };

  Kind kind = Kind::kEdr;
  EdrTolerance tolerance;   ///< EDR matching tolerance (kEdr only)
  double edr_scale = 0.0;   ///< multiplies normalized EDR (kEdr only);
                            ///< <= 0 means "auto": drivers use radius(D)
};

/// Distance between two trajectories under `config` (see DistanceConfig).
double ClusterDistance(const Trajectory& a, const Trajectory& b,
                       const DistanceConfig& config);

/// Telemetry counter name for distance calls of the configured kind
/// ("distance.calls.edr" / "distance.calls.sync_euclidean") — the
/// per-kind accounting Table 3's runtime rows decompose into.
const char* DistanceCallCounterName(const DistanceConfig& config);

/// One anonymity set produced by the clustering phase. Indices refer to the
/// *input* dataset. `k` / `delta` are the cluster's own requirements: the
/// max k_i and min delta_i over its members (Algorithm 3, lines 10-11).
struct AnonymityCluster {
  size_t pivot = 0;             ///< index of the pivot trajectory
  std::vector<size_t> members;  ///< includes the pivot
  int k = 0;
  double delta = 0.0;
};

/// Tuning knobs shared by the whole WCOP suite.
struct WcopOptions {
  /// trash_max as a fraction of |D| (the paper uses 10%). An absolute
  /// override wins when set.
  double trash_fraction = 0.10;
  size_t trash_max_override = std::numeric_limits<size_t>::max();

  /// Initial maximum cluster radius; 0 means "radius(D)" (the paper's
  /// setting). Relaxed geometrically when the trash overflows
  /// (Algorithm 3, line 27).
  double radius_max = 0.0;
  double radius_growth = 1.5;
  size_t max_clustering_rounds = 40;

  /// Clustering distance. When the EDR tolerance is left defaulted
  /// (dx == 0), drivers fill it with the paper's heuristic
  /// EdrTolerance::FromDeltaMax(max delta_i, avg dataset speed), and
  /// edr_scale with radius(D).
  DistanceConfig distance;

  /// Pivot selection randomness (Algorithm 3 picks pivots at random).
  uint64_t seed = 7;

  /// Ablation knob: how the next pivot is chosen. The paper's Algorithm 3
  /// picks uniformly at random; W4M's description favours the trajectory
  /// farthest from all previous pivots.
  enum class PivotPolicy { kRandom, kFarthestFirst };
  PivotPolicy pivot_policy = PivotPolicy::kRandom;

  /// Which clustering algorithm builds the anonymity sets: the paper's
  /// random-pivot greedy pass (Algorithm 3) or the agglomerative
  /// alternative (the conclusion's future-work item; see
  /// anon/agglomerative.h).
  enum class ClusteringAlgo { kGreedyPivot, kAgglomerative };
  ClusteringAlgo clustering_algo = ClusteringAlgo::kGreedyPivot;

  /// Ablation knob: the cluster delta used by the translation phase. The
  /// paper uses the *minimum* member delta (the only choice that honours
  /// every preference); kMean demonstrates what relaxing that costs — the
  /// verifier flags the resulting per-member violations.
  enum class DeltaPolicy { kMin, kMean };
  DeltaPolicy delta_policy = DeltaPolicy::kMin;

  /// Thread count for the parallel phases: <= 0 resolves to WCOP_THREADS
  /// or the hardware concurrency, 1 is the exact serial code path, N fans
  /// pure per-item work over the process-wide pool. For WCOP-CT that is
  /// the per-cluster translation only — both clustering loops are serial;
  /// WCOP-SA also fans out its TRACLUS precompute. The published output is
  /// byte-identical across thread counts — see DESIGN.md "Parallel
  /// execution" for the determinism contract.
  int threads = 0;

  /// Optional execution context: deadline, cancellation, resource budget.
  /// The hot loops poll it at per-cluster / per-trajectory granularity.
  /// Null (the default) means unbounded. Non-owning; the caller keeps the
  /// RunContext alive for the duration of the run.
  const RunContext* run_context = nullptr;

  /// Optional telemetry sink: named counters/gauges/histograms plus phase
  /// trace spans (see DESIGN.md "Observability" for the metric catalog).
  /// Null (the default) disables all instrumentation at one-branch cost.
  /// Non-owning; the caller keeps the Telemetry alive for the run and
  /// snapshots/exports it afterwards.
  telemetry::Telemetry* telemetry = nullptr;

  /// Graceful degradation: when the run context trips mid-run and this is
  /// set, the pipeline stops forming new clusters, suppresses the
  /// not-yet-processed trajectories through the paper's own trash mechanism
  /// (Problem 1 allows up to trash_max suppressions; a degraded run may
  /// exceed that), and returns a partial result flagged
  /// `report.degraded = true`. Every *published* trajectory still satisfies
  /// its (k_i, delta_i) requirement. When false (the default), a tripped
  /// context surfaces as the corresponding non-OK Status and nothing is
  /// published.
  bool allow_partial_results = false;
};

/// Aggregate statistics of one anonymization run — the rows of Table 3.
struct AnonymizationReport {
  size_t input_trajectories = 0;    ///< # (sub-)trajectories fed in
  size_t num_clusters = 0;
  size_t trashed_trajectories = 0;
  size_t trashed_points = 0;
  double discernibility = 0.0;      ///< DCM = sum |C|^2 + |Trash|*|D|
  size_t created_points = 0;
  size_t deleted_points = 0;
  double total_spatial_translation = 0.0;   ///< metres, summed over matches
  double total_temporal_translation = 0.0;  ///< seconds, summed over matches
  double avg_spatial_translation = 0.0;     ///< per published trajectory
  double avg_temporal_translation = 0.0;
  double omega = 0.0;               ///< max translation observed (Eq. 1's Ω)
  double ttd = 0.0;                 ///< total translation distortion (Eq. 2)
  double editing_distortion = 0.0;  ///< DE (Eq. 6); non-zero for WCOP-B only
  double total_distortion = 0.0;    ///< Distortion = TTD + DE (Eq. 7)
  double runtime_seconds = 0.0;
  size_t clustering_rounds = 0;     ///< radius relaxations + 1
  double final_radius = 0.0;        ///< radius_max actually used
  /// True when the run tripped its deadline / cancellation / budget and
  /// published a partial result under WcopOptions::allow_partial_results.
  bool degraded = false;
  std::string degraded_reason;      ///< human-readable trip cause (if any)

  /// Metrics snapshot taken when the run finished, when a telemetry sink
  /// was attached (empty otherwise). Serialized by ReportToJson under
  /// "metrics". Counters are cumulative over the sink's lifetime, so a
  /// run that invokes the pipeline repeatedly (WCOP-B rounds, publication
  /// windows) reports the totals of the whole run.
  telemetry::MetricsSnapshot metrics;
};

/// Full output of an anonymization run.
struct AnonymizationResult {
  Dataset sanitized;                   ///< published trajectories
  std::vector<int64_t> trashed_ids;    ///< suppressed trajectory ids
  std::vector<AnonymityCluster> clusters;
  AnonymizationReport report;
};

}  // namespace wcop

#endif  // WCOP_ANON_TYPES_H_
