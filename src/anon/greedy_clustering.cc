#include "anon/greedy_clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "anon/distance_cache.h"
#include "common/failpoint.h"
#include "index/grid_index.h"

namespace wcop {

namespace {

/// Bounded max-heap of the smallest `capacity` exact distances seen during
/// one pivot scan. Once full, Top() is a schedule-independent best-so-far
/// threshold: any candidate whose lower bound exceeds it already has
/// `capacity` exactly-known candidates ranked strictly ahead of it, so it
/// can never be among the taken nearest neighbours.
class TopKThreshold {
 public:
  void Reset(size_t capacity) {
    capacity_ = capacity;
    heap_.clear();
  }

  void Push(double value) {
    if (capacity_ == 0) {
      return;
    }
    if (heap_.size() < capacity_) {
      heap_.push_back(value);
      std::push_heap(heap_.begin(), heap_.end());
    } else if (value < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = value;
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  bool Full() const { return capacity_ > 0 && heap_.size() == capacity_; }
  double Top() const { return heap_.front(); }

 private:
  size_t capacity_ = 0;
  std::vector<double> heap_;
};

/// Fenwick tree over the active flags: Select(r) is the r-th (0-based)
/// active index in increasing index order — the element an index-sorted
/// active list would hold at position r — in O(log n), so drawing a random
/// pivot by rank needs no list compaction.
class ActiveRanks {
 public:
  /// Marks indices 0..n-1 active, in O(n).
  void Reset(size_t n) {
    tree_.resize(n + 1);
    for (size_t i = 1; i <= n; ++i) {
      tree_[i] = i & (~i + 1);  // lowbit(i): the node covers that many ones
    }
    count_ = n;
    top_bit_ = 1;
    while (top_bit_ * 2 <= n) {
      top_bit_ *= 2;
    }
  }

  /// Clears active index i (which must be active).
  void Deactivate(size_t i) {
    for (size_t pos = i + 1; pos < tree_.size(); pos += pos & (~pos + 1)) {
      --tree_[pos];
    }
    --count_;
  }

  size_t count() const { return count_; }

  /// Index of the r-th active flag; requires r < count().
  size_t Select(size_t r) const {
    size_t pos = 0;
    size_t remaining = r + 1;
    for (size_t step = top_bit_; step > 0; step /= 2) {
      if (pos + step < tree_.size() && tree_[pos + step] < remaining) {
        pos += step;
        remaining -= tree_[pos];
      }
    }
    return pos;  // 1-based position pos + 1 is 0-based index pos
  }

 private:
  std::vector<size_t> tree_;
  size_t count_ = 0;
  size_t top_bit_ = 1;
};

/// Skip pointers over the unclustered indices: Next(i) is the smallest
/// unclustered index >= i (n when none remains). Path halving keeps a walk
/// over the unclustered set proportional to its size, however many
/// clustered indices lie between.
class UnclusteredSkip {
 public:
  void Reset(size_t n) {
    next_.resize(n + 1);
    for (size_t i = 0; i <= n; ++i) {
      next_[i] = i;
    }
  }

  void Remove(size_t i) { next_[i] = i + 1; }

  size_t Next(size_t i) {
    while (next_[i] != i) {
      next_[i] = next_[next_[i]];
      i = next_[i];
    }
    return i;
  }

 private:
  std::vector<size_t> next_;
};

}  // namespace

Result<ClusteringOutcome> GreedyClustering(const Dataset& dataset,
                                           size_t trash_max,
                                           const WcopOptions& options) {
  const size_t n = dataset.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot cluster an empty dataset");
  }
  if (options.radius_max <= 0.0) {
    return Status::InvalidArgument("radius_max must be positive");
  }
  if (options.radius_growth <= 1.0) {
    return Status::InvalidArgument("radius_growth must exceed 1");
  }

  const RunContext* context = options.run_context;
  telemetry::Telemetry* tel = options.telemetry;
  WCOP_TRACE_SPAN(tel, "cluster/greedy");
  // Counter handles resolved once up front; null when telemetry is off.
  telemetry::Counter* attempts = nullptr;
  telemetry::Counter* accepted = nullptr;
  telemetry::Counter* rejected_radius = nullptr;
  telemetry::Counter* rejected_exhausted = nullptr;
  telemetry::Counter* leftover_assigned = nullptr;
  telemetry::Counter* leftover_trashed = nullptr;
  telemetry::Counter* rounds_counter = nullptr;
  telemetry::Histogram* cluster_size = nullptr;
  if (tel != nullptr) {
    attempts = tel->metrics().GetCounter("cluster.attempts");
    accepted = tel->metrics().GetCounter("cluster.accepted");
    rejected_radius = tel->metrics().GetCounter("cluster.rejected.radius");
    rejected_exhausted =
        tel->metrics().GetCounter("cluster.rejected.exhausted");
    leftover_assigned = tel->metrics().GetCounter("cluster.leftover.assigned");
    leftover_trashed = tel->metrics().GetCounter("cluster.leftover.trashed");
    rounds_counter = tel->metrics().GetCounter("cluster.rounds");
    cluster_size = tel->metrics().GetHistogram("cluster.size");
  }
  // Memoizes symmetric pairwise distances across radius-relaxation rounds
  // (the distance function is deterministic, so recomputation is pure
  // waste). Sized for the pools the first round will scan; the cache only
  // ever holds distinct pairs, so cap at the full pair count.
  const size_t expected_pairs =
      std::min(n * (n - 1) / 2, n * size_t{64});
  PairDistanceCache distances(dataset, options.distance, context, tel,
                              expected_pairs);
  // Filter-and-refine scaffolding (EDR cascade only — see DESIGN.md
  // "Distance engine: filter-and-refine"). MBR centers go into a uniform
  // grid sized to the maximum matching reach: two trajectories whose
  // centers are farther apart than the sum of their MBR half-diagonals
  // plus hypot(dx, dy) cannot contain a matching point pair, so their
  // normalized EDR is exactly 1.0 — assigned without any per-pair work.
  // K_global caps how many nearest neighbours any cluster can ever take
  // (cluster.k is the max member k), so the (K_global - 1) smallest exact
  // distances of a scan bound everything a pivot can still accept.
  const bool cascade = distances.cascade_active();
  telemetry::Counter* prefiltered_counter =
      tel != nullptr
          ? tel->metrics().GetCounter("distance.candidates.prefiltered")
          : nullptr;
  int k_global = 2;
  for (const Trajectory& t : dataset.trajectories()) {
    k_global = std::max(k_global, t.requirement().k);
  }
  const size_t top_needed = static_cast<size_t>(k_global - 1);
  double reach_pad = 0.0;
  double max_half_diag = 0.0;
  std::vector<double> center_x;
  std::vector<double> center_y;
  std::vector<double> half_diag;
  std::optional<GridIndex> grid;
  if (cascade) {
    reach_pad = std::hypot(options.distance.tolerance.dx,
                           options.distance.tolerance.dy);
    center_x.resize(n);
    center_y.resize(n);
    half_diag.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const BoundingBox bounds = dataset[i].Bounds();
      if (bounds.empty()) {
        center_x[i] = center_y[i] = half_diag[i] = 0.0;
      } else {
        center_x[i] = 0.5 * (bounds.min_x() + bounds.max_x());
        center_y[i] = 0.5 * (bounds.min_y() + bounds.max_y());
        half_diag[i] = bounds.HalfDiagonal();
      }
      max_half_diag = std::max(max_half_diag, half_diag[i]);
    }
    grid.emplace(std::max(max_half_diag + reach_pad, 1.0));
    grid->AttachTelemetry(tel);
    for (size_t i = 0; i < n; ++i) {
      grid->Insert(i, center_x[i], center_y[i]);
    }
  }
  // Scratch reused across pivot scans. `in_reach` marks the explicit
  // candidates of the current scan and is cleared slot by slot afterwards,
  // so no per-pivot step touches all n indices.
  std::vector<size_t> reach;
  std::vector<char> in_reach(cascade ? n : 0, 0);
  std::vector<size_t> near_candidates;
  struct RefineEntry {
    double bound;
    size_t index;
    PairDistanceCache::BoundRung rung;
  };
  std::vector<RefineEntry> refine;
  std::vector<std::pair<double, size_t>> pool;
  std::vector<size_t> nearest;
  TopKThreshold threshold;
  ActiveRanks active_ranks;
  UnclusteredSkip unclustered;
  // Budget charges happen inside the cache; trips are observed at the
  // per-cluster-attempt checks below.
  Rng rng(options.seed);
  double radius_max = options.radius_max;

  ClusteringOutcome best;
  size_t best_trash = std::numeric_limits<size_t>::max();

  for (size_t round = 0; round < options.max_clustering_rounds; ++round) {
    WCOP_FAILPOINT("cluster.greedy_round");
    WCOP_TRACE_SPAN(tel, "cluster/greedy_round");
    telemetry::CounterAdd(rounds_counter);
    std::vector<bool> active(n, true);
    std::vector<bool> clustered(n, false);
    active_ranks.Reset(n);
    unclustered.Reset(n);
    size_t unclustered_count = n;
    std::vector<AnonymityCluster> clusters;

    // Set when the run context trips mid-round and allow_partial_results
    // turns the trip into degradation: no further clusters are formed and
    // every unclustered trajectory is suppressed.
    bool degraded = false;
    std::string degraded_reason;

    // --- Phase 1: pivot selection and cluster growth (lines 3-19). ---
    std::vector<size_t> chosen_pivots;
    while (active_ranks.count() > 0) {
      // Cooperative yield point: one check per cluster attempt.
      if (Status s = CheckRunContext(context); !s.ok()) {
        if (!options.allow_partial_results) {
          return s;
        }
        degraded = true;
        degraded_reason = s.ToString();
        break;
      }
      // Pivot selection: random (Algorithm 3) or farthest-first (the W4M
      // heuristic, exposed as an ablation). The random draw is a rank into
      // the active indices in increasing order.
      size_t pivot;
      if (options.pivot_policy == WcopOptions::PivotPolicy::kFarthestFirst &&
          !chosen_pivots.empty()) {
        // Argmax over the active indices of the exact distance to the
        // nearest chosen pivot; the first maximum wins ties (every active
        // index is unclustered, and scores are >= 0 > the initial best).
        WCOP_TRACE_SPAN(tel, "cluster/farthest_scan");
        pivot = n;
        double best_score = -1.0;
        for (size_t c = unclustered.Next(0); c < n;
             c = unclustered.Next(c + 1)) {
          if (!active[c]) {
            continue;
          }
          double nearest_pivot = std::numeric_limits<double>::infinity();
          for (size_t p : chosen_pivots) {
            nearest_pivot = std::min(nearest_pivot, distances.Get(p, c));
          }
          if (nearest_pivot > best_score) {
            best_score = nearest_pivot;
            pivot = c;
          }
        }
      } else {
        pivot = active_ranks.Select(rng.UniformIndex(active_ranks.count()));
      }
      chosen_pivots.push_back(pivot);
      WCOP_TRACE_SPAN(tel, "cluster/grow");
      telemetry::CounterAdd(attempts);

      AnonymityCluster cluster;
      cluster.pivot = pivot;
      cluster.members.push_back(pivot);
      cluster.k = dataset[pivot].requirement().k;
      cluster.delta = dataset[pivot].requirement().delta;

      // The pivot's NN pool of line 8 is D - Clustered, ordered by
      // (distance, index). A cluster takes at most top_needed of it, so only
      // that prefix is ever materialized. `pool` holds the *explicit*
      // entries: exact distances, or — for candidates whose lower bound
      // already exceeds the scan's cutoff — the bound. A bound entry sorts
      // after every candidate the cluster could accept (it has top_needed
      // exact entries ahead of it, or lies outside radius_max, where the
      // radius test rejects the cluster anyway), so the accepted clusters
      // are exactly those of a full computation. On the cascade path every
      // other unclustered candidate is *implicit*: certified at exactly
      // edr_scale (outside the grid reach, or MBR-separated from the
      // pivot), it ties with the rest at that value in index order and is
      // merged into the prefix straight from the unclustered set.
      const size_t others = unclustered_count - 1;  // the pivot is unclustered
      pool.clear();
      size_t implicit = 0;
      if (!cascade) {
        WCOP_TRACE_SPAN(tel, "cluster/pivot_scan");
        for (size_t c = unclustered.Next(0); c < n;
             c = unclustered.Next(c + 1)) {
          if (c != pivot) {
            pool.emplace_back(distances.Get(pivot, c), c);
          }
        }
      } else {
        WCOP_TRACE_SPAN(tel, "cluster/pivot_scan");
        threshold.Reset(top_needed);
        // Grid pre-filter + separation: a candidate the reach query cannot
        // return, or whose tolerance-dilated MBR is disjoint from the
        // pivot's, is certified unmatchable — its normalized EDR is exactly
        // 1.0 (all-substitution alignment) with zero per-pair work, and it
        // stays implicit. Only the rest become explicit probe candidates.
        reach.clear();
        grid->CandidateQuery(center_x[pivot], center_y[pivot],
                             half_diag[pivot] + max_half_diag + reach_pad,
                             &reach);
        near_candidates.clear();
        for (size_t c : reach) {
          if (c == pivot || clustered[c] || distances.Separated(pivot, c)) {
            continue;
          }
          in_reach[c] = 1;
          near_candidates.push_back(c);
        }
        implicit = others - near_candidates.size();
        if (implicit > 0) {
          telemetry::CounterAdd(prefiltered_counter, implicit);
        }
        // The threshold keeps the top_needed smallest values pushed, so
        // min(implicit, top_needed) copies of edr_scale leave it exactly
        // as one push per implicit candidate would.
        for (size_t t = 0; t < std::min(implicit, top_needed); ++t) {
          threshold.Push(options.distance.edr_scale);
        }
        // Cheap bound probes (cache / length / envelope): exact values go
        // straight into the pool, bounds queue up for refinement.
        refine.clear();
        for (size_t c : near_candidates) {
          const auto probe = distances.CheapProbe(pivot, c);
          if (probe.exact) {
            pool.emplace_back(probe.value, c);
            threshold.Push(probe.value);
          } else {
            refine.push_back(RefineEntry{probe.value, c, probe.rung});
          }
        }
        std::sort(refine.begin(), refine.end(),
                  [](const RefineEntry& a, const RefineEntry& b) {
                    return a.bound != b.bound ? a.bound < b.bound
                                              : a.index < b.index;
                  });
        // Cheapest-first refinement in growing blocks: the cutoff
        // (best-so-far top-K threshold, capped by radius_max) is frozen per
        // block and tightened only between blocks. The block schedule fixes
        // which pairs reach the DP and at what band, so it pins every
        // distance.* counter. A candidate pruned here has top_needed
        // exactly-known candidates strictly ahead of it (or is outside the
        // acceptance radius), so the exact distance could not have changed
        // any decision; its certified bound enters the pool instead.
        size_t pos = 0;
        size_t block = 32;
        while (pos < refine.size()) {
          const double cutoff =
              threshold.Full() ? std::min(radius_max, threshold.Top())
                               : radius_max;
          if (refine[pos].bound > cutoff) {
            for (size_t t = pos; t < refine.size(); ++t) {
              pool.emplace_back(refine[t].bound, refine[t].index);
              distances.CountBoundPrune(refine[t].rung);
            }
            break;
          }
          const size_t end = std::min(pos + block, refine.size());
          size_t split = end;
          while (split > pos && refine[split - 1].bound > cutoff) {
            --split;
          }
          for (size_t t = pos; t < split; ++t) {
            const double d =
                distances.GetWithCutoff(pivot, refine[t].index, cutoff);
            pool.emplace_back(d, refine[t].index);
            if (d <= cutoff) {
              threshold.Push(d);
            }
          }
          pos = split;
          block = std::min(block * 2, size_t{1024});
        }
      }
      if (context != nullptr) {
        context->ChargeCandidatePairs(others);
      }

      // Selection: order only the top_needed smallest explicit entries, then
      // merge them with the implicit candidates, (edr_scale, index) in index
      // order, into the prefix of the full (distance, index) order.
      const size_t explicit_take = std::min(top_needed, pool.size());
      std::partial_sort(pool.begin(), pool.begin() + explicit_take,
                        pool.end());
      auto next_implicit = [&](size_t from) {
        if (implicit == 0) {
          return n;
        }
        size_t c = unclustered.Next(from);
        while (c < n && (c == pivot || in_reach[c])) {
          c = unclustered.Next(c + 1);
        }
        return c;
      };
      nearest.clear();
      size_t next_explicit = 0;
      size_t implicit_cand = next_implicit(0);
      while (nearest.size() < top_needed) {
        if (next_explicit < explicit_take &&
            (implicit_cand == n ||
             pool[next_explicit] <
                 std::make_pair(options.distance.edr_scale, implicit_cand))) {
          nearest.push_back(pool[next_explicit++].second);
        } else if (implicit_cand < n) {
          nearest.push_back(implicit_cand);
          implicit_cand = next_implicit(implicit_cand + 1);
        } else {
          break;
        }
      }
      for (size_t c : near_candidates) {
        in_reach[c] = 0;
      }

      size_t next_candidate = 0;
      bool grown = true;
      while (static_cast<size_t>(cluster.k) > cluster.members.size()) {
        if (next_candidate >= nearest.size()) {
          grown = false;  // not enough unclustered trajectories remain
          break;
        }
        const size_t nn = nearest[next_candidate];
        ++next_candidate;
        cluster.members.push_back(nn);
        cluster.k = std::max(cluster.k, dataset[nn].requirement().k);
        cluster.delta = std::min(cluster.delta, dataset[nn].requirement().delta);
      }

      // Acceptance test (line 13): pivot-to-member radius within bounds.
      // A cutoff lookup suffices — a lower bound only comes back when it
      // exceeds radius_max, in which case the true radius does too.
      double radius = 0.0;
      for (size_t m : cluster.members) {
        radius = std::max(radius,
                          distances.GetWithCutoff(pivot, m, radius_max));
      }
      if (grown && radius <= radius_max) {
        telemetry::CounterAdd(accepted);
        if (cluster_size != nullptr) {
          cluster_size->Record(cluster.members.size());
        }
        for (size_t m : cluster.members) {
          clustered[m] = true;
          unclustered.Remove(m);
          if (active[m]) {
            active[m] = false;
            active_ranks.Deactivate(m);
          }
        }
        unclustered_count -= cluster.members.size();
        clusters.push_back(std::move(cluster));
      } else {
        // Reject: only the pivot leaves the active set (line 18).
        telemetry::CounterAdd(grown ? rejected_radius : rejected_exhausted);
        active[pivot] = false;
        active_ranks.Deactivate(pivot);
      }
    }

    // --- Phase 2: leftover assignment (lines 20-26). ---
    std::vector<size_t> trash;
    for (size_t idx = 0; idx < n; ++idx) {
      if (clustered[idx]) {
        continue;
      }
      if (!degraded) {
        if (Status s = CheckRunContext(context); !s.ok()) {
          if (!options.allow_partial_results) {
            return s;
          }
          degraded = true;
          degraded_reason = s.ToString();
        }
      }
      if (degraded) {
        // Degradation: leftovers are suppressed without spending further
        // distance computations.
        telemetry::CounterAdd(leftover_trashed);
        trash.push_back(idx);
        continue;
      }
      const Requirement& req = dataset[idx].requirement();
      // Nearest compatible cluster pivot, first-wins over the cluster
      // order. Under the cascade the running best tightens the cutoff, and
      // a probe bound above it certifies the cluster cannot win (the
      // selection takes strictly smaller distances, so ties keep the first
      // cluster exactly as an exhaustive scan does).
      double best_dist = std::numeric_limits<double>::infinity();
      AnonymityCluster* best_cluster = nullptr;
      for (AnonymityCluster& cluster : clusters) {
        // Eligibility: the cluster (including tau itself) satisfies tau's k,
        // and tau's delta tolerance is no stricter than the cluster's delta.
        if (cluster.members.size() + 1 < static_cast<size_t>(req.k) ||
            cluster.delta > req.delta) {
          continue;
        }
        double d;
        if (!cascade) {
          d = distances.Get(cluster.pivot, idx);
        } else {
          const double cutoff = std::min(radius_max, best_dist);
          const auto probe = distances.CheapProbe(cluster.pivot, idx);
          if (probe.exact) {
            d = probe.value;
          } else if (probe.value > cutoff) {
            distances.CountBoundPrune(probe.rung);
            continue;
          } else {
            d = distances.GetWithCutoff(cluster.pivot, idx, cutoff);
          }
        }
        if (d <= radius_max && d < best_dist) {
          best_dist = d;
          best_cluster = &cluster;
        }
      }
      if (best_cluster != nullptr) {
        telemetry::CounterAdd(leftover_assigned);
        best_cluster->members.push_back(idx);
        best_cluster->k = std::max(best_cluster->k, req.k);
      } else {
        telemetry::CounterAdd(leftover_trashed);
        trash.push_back(idx);
      }
    }

    if (degraded) {
      // The trip ends the run here: later rounds would only spend more of
      // the exhausted budget. The clusters formed so far are complete
      // anonymity sets; everything else is trash (possibly > trash_max).
      ClusteringOutcome out;
      out.clusters = std::move(clusters);
      out.trash = std::move(trash);
      out.rounds = round + 1;
      out.final_radius = radius_max;
      out.degraded = true;
      out.degraded_reason = std::move(degraded_reason);
      return out;
    }

    if (trash.size() < best_trash) {
      best_trash = trash.size();
      best.clusters = clusters;
      best.trash = trash;
      best.rounds = round + 1;
      best.final_radius = radius_max;
    }
    if (trash.size() <= trash_max) {
      ClusteringOutcome out;
      out.clusters = std::move(clusters);
      out.trash = std::move(trash);
      out.rounds = round + 1;
      out.final_radius = radius_max;
      return out;
    }
    radius_max *= options.radius_growth;  // line 27: increase(radius_max)
  }

  return Status::Unsatisfiable(
      "clustering could not meet trash_max=" + std::to_string(trash_max) +
      " within " + std::to_string(options.max_clustering_rounds) +
      " radius relaxations (best trash: " + std::to_string(best_trash) + ")");
}

}  // namespace wcop
