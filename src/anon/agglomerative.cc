#include "anon/agglomerative.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "anon/distance_cache.h"
#include "common/failpoint.h"

namespace wcop {

namespace {

struct WorkingCluster {
  std::vector<size_t> members;
  int k = 0;
  double delta = 0.0;
  size_t medoid = 0;
  bool alive = true;

  size_t Deficit() const {
    return members.size() >= static_cast<size_t>(k)
               ? 0
               : static_cast<size_t>(k) - members.size();
  }
};

size_t ElectMedoid(const std::vector<size_t>& members,
                   PairDistanceCache* distances) {
  if (members.size() <= 2) {
    return members.front();
  }
  size_t best = members.front();
  double best_sum = std::numeric_limits<double>::infinity();
  for (size_t candidate : members) {
    double sum = 0.0;
    for (size_t other : members) {
      sum += distances->Get(candidate, other);
    }
    if (sum < best_sum) {
      best_sum = sum;
      best = candidate;
    }
  }
  return best;
}

}  // namespace

Result<ClusteringOutcome> AgglomerativeClustering(const Dataset& dataset,
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
  WCOP_TRACE_SPAN(tel, "cluster/agglomerative");
  telemetry::Counter* merges = nullptr;
  telemetry::Counter* retired = nullptr;
  telemetry::Counter* rounds_counter = nullptr;
  telemetry::Histogram* cluster_size = nullptr;
  if (tel != nullptr) {
    merges = tel->metrics().GetCounter("cluster.merges");
    retired = tel->metrics().GetCounter("cluster.retired");
    rounds_counter = tel->metrics().GetCounter("cluster.rounds");
    cluster_size = tel->metrics().GetHistogram("cluster.size");
  }
  // Agglomerative merging eventually touches most pairs; reserving the
  // full triangle up front keeps the hot loop free of rehashes. The shared
  // pair cache brings the lower-bound cascade (analytic separation/envelope
  // exacts, cutoff-certified bounds) to the medoid partner search.
  PairDistanceCache distances(dataset, options.distance, context, tel,
                              n * (n - 1) / 2);
  const bool cascade = distances.cascade_active();
  double radius_max = options.radius_max;

  for (size_t round = 0; round < options.max_clustering_rounds; ++round) {
    WCOP_FAILPOINT("cluster.agglomerative_round");
    WCOP_TRACE_SPAN(tel, "cluster/agglomerative_round");
    telemetry::CounterAdd(rounds_counter);
    bool degraded = false;
    std::string degraded_reason;
    std::vector<WorkingCluster> clusters(n);
    for (size_t i = 0; i < n; ++i) {
      clusters[i].members = {i};
      clusters[i].k = dataset[i].requirement().k;
      clusters[i].delta = dataset[i].requirement().delta;
      clusters[i].medoid = i;
    }

    // Deficit-driven merging.
    while (true) {
      // Cooperative yield point: one check per merge step. On a trip with
      // allow_partial_results, every still-deficient cluster is retired to
      // the trash; the satisfied ones remain publishable anonymity sets.
      if (Status s = CheckRunContext(context); !s.ok()) {
        if (!options.allow_partial_results) {
          return s;
        }
        degraded = true;
        degraded_reason = s.ToString();
        for (WorkingCluster& c : clusters) {
          if (c.alive && c.Deficit() > 0) {
            c.alive = false;
            c.k = -1;  // mark as trashed
          }
        }
        break;
      }
      // Most deficient live cluster.
      size_t worst = n;
      size_t worst_deficit = 0;
      for (size_t c = 0; c < clusters.size(); ++c) {
        if (clusters[c].alive && clusters[c].Deficit() > worst_deficit) {
          worst_deficit = clusters[c].Deficit();
          worst = c;
        }
      }
      if (worst == n) {
        break;  // all requirements met
      }
      // Nearest live partner within radius_max (medoid distance). Under
      // the cascade the running best tightens a cutoff: a certified bound
      // above it proves the cluster cannot win (selection takes strictly
      // smaller distances, so ties keep the first cluster either way).
      size_t partner = n;
      double partner_dist = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < clusters.size(); ++c) {
        if (c == worst || !clusters[c].alive) {
          continue;
        }
        double d;
        if (cascade) {
          const double cutoff = std::min(radius_max, partner_dist);
          const auto probe =
              distances.CheapProbe(clusters[worst].medoid, clusters[c].medoid);
          if (probe.exact) {
            d = probe.value;
          } else if (probe.value > cutoff) {
            distances.CountBoundPrune(probe.rung);
            continue;
          } else {
            d = distances.GetWithCutoff(clusters[worst].medoid,
                                        clusters[c].medoid, cutoff);
          }
        } else {
          d = distances.Get(clusters[worst].medoid, clusters[c].medoid);
        }
        if (d <= radius_max && d < partner_dist) {
          partner_dist = d;
          partner = c;
        }
      }
      if (partner == n) {
        // Unsatisfiable within the radius: retire the cluster (its members
        // head for the trash this round).
        telemetry::CounterAdd(retired);
        clusters[worst].alive = false;
        clusters[worst].k = -1;  // mark as trashed
        continue;
      }
      // Merge partner into worst.
      telemetry::CounterAdd(merges);
      WorkingCluster& dst = clusters[worst];
      WorkingCluster& src = clusters[partner];
      dst.members.insert(dst.members.end(), src.members.begin(),
                         src.members.end());
      dst.k = std::max(dst.k, src.k);
      dst.delta = std::min(dst.delta, src.delta);
      dst.medoid = ElectMedoid(dst.members, &distances);
      src.alive = false;
      src.members.clear();
    }

    ClusteringOutcome outcome;
    for (const WorkingCluster& c : clusters) {
      if (c.k == -1) {
        for (size_t m : c.members) {
          outcome.trash.push_back(m);
        }
        continue;
      }
      if (!c.alive || c.members.empty()) {
        continue;
      }
      AnonymityCluster out;
      out.pivot = c.medoid;
      out.members = c.members;
      out.k = c.k;
      out.delta = c.delta;
      if (cluster_size != nullptr) {
        cluster_size->Record(out.members.size());
      }
      outcome.clusters.push_back(std::move(out));
    }
    outcome.rounds = round + 1;
    outcome.final_radius = radius_max;
    if (degraded) {
      outcome.degraded = true;
      outcome.degraded_reason = std::move(degraded_reason);
      return outcome;  // may exceed trash_max; the trip ends the run
    }
    if (outcome.trash.size() <= trash_max) {
      return outcome;
    }
    radius_max *= options.radius_growth;
  }

  return Status::Unsatisfiable(
      "agglomerative clustering could not meet trash_max=" +
      std::to_string(trash_max) + " within " +
      std::to_string(options.max_clustering_rounds) + " radius relaxations");
}

}  // namespace wcop
