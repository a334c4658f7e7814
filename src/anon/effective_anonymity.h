#ifndef WCOP_ANON_EFFECTIVE_ANONYMITY_H_
#define WCOP_ANON_EFFECTIVE_ANONYMITY_H_

#include <cstddef>
#include <vector>

#include "traj/dataset.h"

namespace wcop {

/// Measures the anonymity a published dataset *actually* provides, without
/// trusting any cluster metadata: for each published trajectory, count the
/// published trajectories (including itself) it is co-localized with
/// w.r.t. its own requirement delta_i over a shared lifetime (Definition 2
/// at the personal delta). A trajectory published inside an intact
/// (k,delta)-anonymity set scores >= k; a trajectory that ended up alone
/// scores 1 — a privacy leak this auditor surfaces no matter what the
/// publisher claims.
struct EffectiveAnonymityReport {
  std::vector<size_t> counts;     ///< aligned with the published dataset
  size_t min_anonymity = 0;
  double mean_anonymity = 0.0;
  /// Fraction of trajectories whose effective anonymity is below their own
  /// declared k requirement (0 = the publication honours everyone).
  double violation_fraction = 0.0;
};

/// Computes the report. This is not the audit's k^{τ,ε} measure
/// (attack/effective_k.h): that one applies one global ε at sampled
/// timestamps of a τ-interval, this one each user's own delta_i over the
/// whole lifetime.
EffectiveAnonymityReport MeasureEffectiveAnonymity(const Dataset& published);

}  // namespace wcop

#endif  // WCOP_ANON_EFFECTIVE_ANONYMITY_H_
