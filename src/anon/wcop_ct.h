#ifndef WCOP_ANON_WCOP_CT_H_
#define WCOP_ANON_WCOP_CT_H_

#include "anon/greedy_clustering.h"
#include "anon/types.h"
#include "common/result.h"
#include "traj/dataset.h"

namespace wcop {

/// WCOP-CT (Algorithm 2): personalized (K,Delta)-anonymization by greedy
/// Clustering and EDR-driven spatio-temporal Translation.
///
/// Each cluster produced by WCOP-Clustering is transformed into its own
/// (k,delta)-anonymity set: delta_c is the minimum delta_i among its
/// members, and every member is translated onto the pivot's timeline with
/// all points inside the delta_c/2 disk around the corresponding pivot
/// point. Option defaults that are left at their zero values are filled
/// from the dataset (radius_max := radius(D); EDR tolerance := the paper's
/// heuristic from max delta_i and the dataset average speed; edr_scale :=
/// radius(D)).
Result<AnonymizationResult> RunWcopCt(const Dataset& dataset,
                                      const WcopOptions& options = {});

/// Fills the auto (zero-valued) fields of `options` from the dataset, as
/// described above. Exposed so that callers who run several algorithms on
/// the same data can pin identical resolved parameters.
WcopOptions ResolveOptions(const Dataset& dataset, WcopOptions options);

/// Shared second phase: turns a clustering outcome into the sanitized
/// dataset plus the full report (translation, distortion, discernibility,
/// runtime fields other than runtime_seconds which the caller owns).
/// `dataset` must be the dataset the clustering was computed on.
///
/// Honours `resolved_options.run_context` at per-cluster granularity: a
/// trip mid-translation either propagates as a Status or — with
/// `allow_partial_results` — suppresses the not-yet-translated clusters
/// (their members join the trash) and flags the result degraded.
Result<AnonymizationResult> AnonymizeClusters(
    const Dataset& dataset, const ClusteringOutcome& outcome,
    const WcopOptions& resolved_options);

/// Publishes the run-wide telemetry gauges (RunContext budget consumption,
/// process failpoint fires) and stores a metrics snapshot on `report`.
/// No-op when `options.telemetry` is null. Drivers that wrap RunWcopCt
/// (WCOP-SA/B) call this again after adding their own counters so the final
/// report carries the complete totals.
void SnapshotTelemetry(const WcopOptions& options,
                       AnonymizationReport* report);

}  // namespace wcop

#endif  // WCOP_ANON_WCOP_CT_H_
