#include "anon/distance_cache.h"

#include <algorithm>

#include "distance/edr_kernel.h"

namespace wcop {

namespace {

/// Below this length the envelope sweep costs about as much as the DP it
/// tries to avoid; shorter pairs go straight to the kernel.
constexpr uint32_t kEnvelopeMinLen = 4;

}  // namespace

PairDistanceCache::PairDistanceCache(const Dataset& dataset,
                                     const DistanceConfig& config,
                                     const RunContext* context,
                                     telemetry::Telemetry* telemetry,
                                     size_t expected_pairs)
    : dataset_(dataset), config_(config), context_(context),
      n_(dataset.size()) {
  if (telemetry != nullptr) {
    // Resolve the counters once; the per-lookup path then pays one atomic
    // add per event — cache hits touch nothing budget-related, matching
    // the RunContext accounting exactly.
    distance_calls_ =
        telemetry->metrics().GetCounter(DistanceCallCounterName(config));
    cache_hits_ = telemetry->metrics().GetCounter("distance.cache_hits");
    early_abandoned_ =
        telemetry->metrics().GetCounter("distance.early_abandoned");
    lb_length_ = telemetry->metrics().GetCounter("distance.lb.length_pruned");
    lb_separation_ =
        telemetry->metrics().GetCounter("distance.lb.separation_pruned");
    lb_envelope_ =
        telemetry->metrics().GetCounter("distance.lb.envelope_pruned");
    lb_band_ = telemetry->metrics().GetCounter("distance.lb.band_pruned");
  }
  cascade_ =
      config.kind == DistanceConfig::Kind::kEdr && config.edr_scale > 0.0;
  if (cascade_) {
    profiles_.reserve(n_);
    for (const Trajectory& t : dataset.trajectories()) {
      profiles_.push_back(EdrBoundsProfile::Of(t));
    }
  }
  map_.reserve(expected_pairs);
}

uint32_t PairDistanceCache::BandFor(double cutoff, uint32_t maxlen) const {
  if (!(cutoff < config_.edr_scale)) {
    return maxlen;  // the cutoff admits any distance: full-width evaluation
  }
  // Floor estimate, then fix up with the exact ToScaled comparisons the
  // verdicts use so float rounding can never under-size the band.
  const double estimate =
      cutoff * static_cast<double>(maxlen) / config_.edr_scale;
  uint32_t band = estimate > 0.0
                      ? static_cast<uint32_t>(std::min(
                            estimate, static_cast<double>(maxlen)))
                      : 0u;
  while (band > 0 && ToScaled(band, maxlen) > cutoff) {
    --band;
  }
  while (band < maxlen && ToScaled(band + 1, maxlen) <= cutoff) {
    ++band;
  }
  return band;
}

void PairDistanceCache::Store(uint64_t key, Entry entry) {
  auto [it, inserted] = map_.try_emplace(key, entry);
  if (!inserted) {
    if (entry.is_bound) {
      entry.value = std::max(entry.value, it->second.value);
    }
    it->second = entry;
  }
}

double PairDistanceCache::StoreComputed(uint64_t key, double value) {
  Store(key, Entry{value, false});
  if (context_ != nullptr) {
    context_->ChargeDistance();
  }
  telemetry::CounterAdd(distance_calls_);
  ++computed_;
  return value;
}

double PairDistanceCache::StoreAnalyticExact(
    uint64_t key, double value, telemetry::Counter* rung_counter) {
  Store(key, Entry{value, false});
  // The certificate *is* the distance; no DP ran, so neither the budget
  // nor distance.calls.* moves. The lookup still counts as an early
  // abandon of the exact DP — distance.early_abandoned totals every
  // cascade resolution, with distance.lb.* as the per-rung breakdown.
  telemetry::CounterAdd(early_abandoned_);
  telemetry::CounterAdd(rung_counter);
  ++abandoned_;
  ++analytic_;
  return value;
}

double PairDistanceCache::StoreBound(uint64_t key, double value,
                                     telemetry::Counter* rung_counter) {
  Store(key, Entry{value, true});
  telemetry::CounterAdd(early_abandoned_);
  telemetry::CounterAdd(rung_counter);
  ++abandoned_;
  return value;
}

void PairDistanceCache::CountBoundPrune(BoundRung rung) {
  if (rung == BoundRung::kCached) {
    // The decision was made by a previously stored (and already counted)
    // bound — the same event a cutoff lookup served from the cache counts.
    telemetry::CounterAdd(cache_hits_);
    return;
  }
  telemetry::CounterAdd(early_abandoned_);
  ++abandoned_;
  switch (rung) {
    case BoundRung::kLength:
      telemetry::CounterAdd(lb_length_);
      break;
    case BoundRung::kSeparation:
      telemetry::CounterAdd(lb_separation_);
      break;
    case BoundRung::kEnvelope:
      telemetry::CounterAdd(lb_envelope_);
      break;
    case BoundRung::kCached:
      break;
  }
}

double PairDistanceCache::Get(size_t i, size_t j) {
  if (i == j) {
    return 0.0;
  }
  const uint64_t key = KeyOf(i, j);
  if (auto it = map_.find(key); it != map_.end() && !it->second.is_bound) {
    telemetry::CounterAdd(cache_hits_);
    return it->second.value;
  }
  if (cascade_) {
    const EdrBoundsProfile& pa = profiles_[i];
    const EdrBoundsProfile& pb = profiles_[j];
    const uint32_t maxlen = std::max(pa.length, pb.length);
    if (maxlen > 0) {
      // Analytic certificates short-circuit even an exact request: when no
      // point pair can match, the distance is max length — exactly what
      // the DP would return.
      if (EdrSeparated(pa, pb, config_.tolerance)) {
        return StoreAnalyticExact(key, ToScaled(maxlen, maxlen),
                                  lb_separation_);
      }
      if (maxlen >= kEnvelopeMinLen) {
        const EdrEnvelopeBound env = EdrEnvelopeLowerBound(
            dataset_[i], pa, dataset_[j], pb, config_.tolerance);
        if (env.exact) {
          return StoreAnalyticExact(key, ToScaled(env.bound, maxlen),
                                    lb_envelope_);
        }
      }
    }
  }
  const double d = ClusterDistance(dataset_[i], dataset_[j], config_);
  return StoreComputed(key, d);
}

double PairDistanceCache::GetWithCutoff(size_t i, size_t j,
                                        double cutoff) {
  if (!cascade_) {
    // Plain path (synchronized Euclidean, non-positive EDR scale): no
    // certified bound exists, so the cutoff cannot save any work.
    return Get(i, j);
  }
  if (i == j) {
    return 0.0;
  }
  const uint64_t key = KeyOf(i, j);
  if (auto it = map_.find(key);
      it != map_.end() &&
      (!it->second.is_bound || it->second.value > cutoff)) {
    telemetry::CounterAdd(cache_hits_);
    return it->second.value;
  }
  const EdrBoundsProfile& pa = profiles_[i];
  const EdrBoundsProfile& pb = profiles_[j];
  const uint32_t maxlen = std::max(pa.length, pb.length);
  if (maxlen == 0) {
    return StoreComputed(key, 0.0);  // two empty trajectories
  }
  // Rung 1: length bound, O(1).
  const double length_bound = ToScaled(EdrLengthLowerBound(pa, pb), maxlen);
  if (length_bound > cutoff) {
    return StoreBound(key, length_bound, lb_length_);
  }
  // Rung 2: separation certificate, O(1) — an analytic *exact*.
  if (EdrSeparated(pa, pb, config_.tolerance)) {
    return StoreAnalyticExact(key, ToScaled(maxlen, maxlen),
                              lb_separation_);
  }
  // Rung 3: envelope bound, O(n+m).
  if (maxlen >= kEnvelopeMinLen) {
    const EdrEnvelopeBound env = EdrEnvelopeLowerBound(
        dataset_[i], pa, dataset_[j], pb, config_.tolerance);
    if (env.exact) {
      return StoreAnalyticExact(key, ToScaled(env.bound, maxlen),
                                lb_envelope_);
    }
    const double envelope_bound = ToScaled(env.bound, maxlen);
    if (envelope_bound > cutoff) {
      return StoreBound(key, envelope_bound, lb_envelope_);
    }
  }
  // Refine: DP kernel, banded to the width the cutoff still permits.
  const uint32_t band = BandFor(cutoff, maxlen);
  const EdrKernelResult r =
      EdrOps(dataset_[i], dataset_[j], config_.tolerance, band);
  if (r.exact) {
    return StoreComputed(key, ToScaled(r.ops, maxlen));
  }
  return StoreBound(key, ToScaled(r.ops, maxlen), lb_band_);
}

PairDistanceCache::ProbeResult PairDistanceCache::CheapProbe(size_t i,
                                                             size_t j) {
  ProbeResult result;
  if (i == j) {
    result.value = 0.0;
    result.exact = true;
    result.rung = BoundRung::kCached;
    return result;
  }
  const uint64_t key = KeyOf(i, j);
  double floor = 0.0;
  bool have_cached_bound = false;
  if (auto it = map_.find(key); it != map_.end()) {
    if (!it->second.is_bound) {
      telemetry::CounterAdd(cache_hits_);
      result.value = it->second.value;
      result.exact = true;
      result.rung = BoundRung::kCached;
      return result;
    }
    floor = it->second.value;
    have_cached_bound = true;
  }
  const EdrBoundsProfile& pa = profiles_[i];
  const EdrBoundsProfile& pb = profiles_[j];
  const uint32_t maxlen = std::max(pa.length, pb.length);
  if (maxlen == 0) {
    result.value = 0.0;
    result.exact = true;
    result.rung = BoundRung::kCached;
    return result;
  }
  result.rung = have_cached_bound ? BoundRung::kCached : BoundRung::kLength;
  result.value = floor;
  const double length_bound = ToScaled(EdrLengthLowerBound(pa, pb), maxlen);
  if (length_bound > result.value) {
    result.value = length_bound;
    result.rung = BoundRung::kLength;
  }
  if (EdrSeparated(pa, pb, config_.tolerance)) {
    result.value = StoreAnalyticExact(key, ToScaled(maxlen, maxlen),
                                      lb_separation_);
    result.exact = true;
    result.rung = BoundRung::kSeparation;
    return result;
  }
  if (maxlen >= kEnvelopeMinLen) {
    const EdrEnvelopeBound env = EdrEnvelopeLowerBound(
        dataset_[i], pa, dataset_[j], pb, config_.tolerance);
    if (env.exact) {
      result.value = StoreAnalyticExact(key, ToScaled(env.bound, maxlen),
                                        lb_envelope_);
      result.exact = true;
      result.rung = BoundRung::kEnvelope;
      return result;
    }
    const double envelope_bound = ToScaled(env.bound, maxlen);
    if (envelope_bound > result.value) {
      result.value = envelope_bound;
      result.rung = BoundRung::kEnvelope;
    }
  }
  return result;
}

}  // namespace wcop
