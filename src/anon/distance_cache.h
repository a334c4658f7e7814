#ifndef WCOP_ANON_DISTANCE_CACHE_H_
#define WCOP_ANON_DISTANCE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "anon/types.h"
#include "distance/edr_bounds.h"
#include "traj/dataset.h"

namespace wcop {

/// Single-threaded memo of symmetric pairwise trajectory distances for the
/// clustering loops (the distance function is deterministic, so
/// recomputation across radius-relaxation rounds is pure waste).
///
/// Keys are the symmetric pair key (min(i,j) * n + max(i,j)) in one map,
/// `reserve`d up front from the expected pair count so the hot loop rarely
/// rehashes.
///
/// ## Filter-and-refine (EDR with a positive scale)
///
/// When the cascade is active, a cutoff lookup runs cheap certified lower
/// bounds before the DP: the length bound (O(1)), the MBR/tolerance
/// separation certificate (O(1), and when it fires the distance is *known*
/// — max length, stored as an analytic exact), and the envelope bound
/// (O(n+m); zero matchable points again yields an analytic exact). Only
/// survivors reach the DP kernel, banded to the width the cutoff still
/// permits — a banded abandon stores `band+1` as a certified bound. Every
/// returned value is either the exact distance or a lower bound > cutoff,
/// so decisions made by comparing against the cutoff are identical to full
/// computation. `CheapProbe` exposes the bound cascade alone (never runs
/// the DP) for callers that order candidates cheapest-first. Other kinds
/// (synchronized Euclidean) and a non-positive EDR scale take the plain
/// path: no certified bound exists, so every miss computes the exact
/// distance and no bound entry is ever stored.
///
/// Accounting is exact: every stored DP-computed distance charges
/// RunContext::ChargeDistance and the per-kind `distance.calls.*` counter
/// once; analytic exacts (separation / empty-envelope certificates) charge
/// neither the budget nor `distance.calls.*` — no DP table was filled.
/// Lookups satisfied from the map count `distance.cache_hits`.
/// `distance.early_abandoned` totals every lookup the cascade resolved
/// short of the exact DP — cutoff-certified bound serves *and* analytic
/// certificates — with `distance.lb.*_pruned` as the per-rung breakdown.
///
/// Early-abandon entries: bound entries are flagged, never mistaken for an
/// exact distance. A later lookup whose cutoff the stored bound still
/// exceeds is served from the cache; any other access upgrades the entry to
/// the exact value (a second bound keeps the max — both are certified).
class PairDistanceCache {
 public:
  /// Which rung of the cascade produced a CheapProbe value.
  enum class BoundRung { kCached, kLength, kSeparation, kEnvelope };

  /// Result of CheapProbe: either an exact distance (cached or analytic) or
  /// the best certified lower bound the cheap rungs could prove.
  struct ProbeResult {
    double value = 0.0;
    bool exact = false;
    BoundRung rung = BoundRung::kLength;
  };

  /// `expected_pairs` sizes the map up front (pass the anticipated
  /// candidate-pool volume; it is a reservation, not a limit). The context
  /// and telemetry pointers may be null; counter handles are resolved once
  /// here, never in the per-lookup path.
  PairDistanceCache(const Dataset& dataset, const DistanceConfig& config,
                    const RunContext* context,
                    telemetry::Telemetry* telemetry, size_t expected_pairs);

  /// Exact distance between trajectories i and j.
  double Get(size_t i, size_t j);

  /// Distance usable for comparisons against `cutoff`: the result is either
  /// the exact distance or a lower bound that exceeds `cutoff` (so
  /// `result <= cutoff` implies the result is exact, and `result > cutoff`
  /// implies the exact distance also exceeds the cutoff).
  double GetWithCutoff(size_t i, size_t j, double cutoff);

  /// Runs only the cheap rungs (cache, length, separation, envelope) —
  /// never the DP. When the result is not exact, `value` is a certified
  /// lower bound; a caller that discards the pair on it must report the
  /// decision through CountBoundPrune so the abandon accounting stays
  /// exact. Requires cascade_active().
  ProbeResult CheapProbe(size_t i, size_t j);

  /// Records that the caller discarded a pair using a (non-exact)
  /// CheapProbe value: counts `distance.early_abandoned` plus the rung's
  /// `distance.lb.*_pruned` counter (a kCached rung counts a cache hit —
  /// the stored bound made the decision, as in a cutoff lookup served from
  /// the cache).
  void CountBoundPrune(BoundRung rung);

  /// True when the filter-and-refine cascade is in effect: EDR distance
  /// with a positive scale.
  bool cascade_active() const { return cascade_; }

  /// True when the separation certificate proves the pair's distance is
  /// exactly edr_scale (no point pair can match; at least one side is
  /// non-empty). Pure: no cache access, no counters, no budget charge — the
  /// caller that acts on it owns the accounting. Requires cascade_active().
  bool Separated(size_t i, size_t j) const {
    const EdrBoundsProfile& pa = profiles_[i];
    const EdrBoundsProfile& pb = profiles_[j];
    return std::max(pa.length, pb.length) > 0 &&
           EdrSeparated(pa, pb, config_.tolerance);
  }

  /// Number of full (DP) distance computations stored so far.
  uint64_t computed() const { return computed_; }

  /// Number of lookups resolved short of the exact DP so far (bound
  /// serves plus analytic certificates; superset of analytic()).
  uint64_t abandoned() const { return abandoned_; }

  /// Number of analytically certified exact distances stored without a DP
  /// run (separation / empty-envelope certificates).
  uint64_t analytic() const { return analytic_; }

 private:
  struct Entry {
    double value = 0.0;
    bool is_bound = false;  ///< value is a certified lower bound, not exact
  };

  uint64_t KeyOf(size_t i, size_t j) const {
    return i < j ? static_cast<uint64_t>(i) * n_ + j
                 : static_cast<uint64_t>(j) * n_ + i;
  }

  /// Normalized-and-scaled distance for an op count — the exact expression
  /// ClusterDistance evaluates, so cascade values agree with it
  /// bit-for-bit.
  double ToScaled(uint32_t ops, uint32_t maxlen) const {
    return static_cast<double>(ops) / static_cast<double>(maxlen) *
           config_.edr_scale;
  }

  /// Smallest band width such that ToScaled(band + 1) > cutoff (capped at
  /// maxlen): exact results <= cutoff always fit inside the band, and a
  /// banded abandon is certified to exceed the cutoff.
  uint32_t BandFor(double cutoff, uint32_t maxlen) const;

  /// The one store path. An exact entry replaces a stored bound; a bound
  /// keeps the max of itself and a stored bound. Callers only store after
  /// a lookup that found no exact entry.
  void Store(uint64_t key, Entry entry);

  /// Stores a value the DP computed and charges the budget and
  /// `distance.calls.*`.
  double StoreComputed(uint64_t key, double value);

  /// Stores an analytically certified exact value (no DP ran): counts the
  /// abandon under `rung_counter` instead of budget/`distance.calls.*`.
  double StoreAnalyticExact(uint64_t key, double value,
                            telemetry::Counter* rung_counter);

  /// Stores a certified lower bound and counts the abandon under
  /// `rung_counter`.
  double StoreBound(uint64_t key, double value,
                    telemetry::Counter* rung_counter);

  const Dataset& dataset_;
  const DistanceConfig& config_;
  const RunContext* context_;
  telemetry::Counter* distance_calls_ = nullptr;
  telemetry::Counter* cache_hits_ = nullptr;
  telemetry::Counter* early_abandoned_ = nullptr;
  telemetry::Counter* lb_length_ = nullptr;
  telemetry::Counter* lb_separation_ = nullptr;
  telemetry::Counter* lb_envelope_ = nullptr;
  telemetry::Counter* lb_band_ = nullptr;
  uint64_t n_;
  bool cascade_ = false;
  std::vector<EdrBoundsProfile> profiles_;  ///< cascade only; indexed as dataset
  std::unordered_map<uint64_t, Entry> map_;
  uint64_t computed_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t analytic_ = 0;
};

}  // namespace wcop

#endif  // WCOP_ANON_DISTANCE_CACHE_H_
