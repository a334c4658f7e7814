#include "attack/reident.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "geo/point.h"

namespace wcop {
namespace attack {

namespace {

/// Per-victim outcome, reduced in victim-index order on the coordinator so
/// the aggregate doubles are summed in one deterministic order regardless
/// of scheduling.
struct VictimOutcome {
  Status status;
  bool suppressed = false;
  double top1 = 0.0;
  double top5 = 0.0;
  double rank = 0.0;
  double reciprocal = 0.0;
  uint64_t scored = 0;
  uint64_t pruned = 0;
};

VictimOutcome AttackVictim(const CandidateSource& original,
                           const CandidateSource& published, size_t victim,
                           const ReidentOptions& options) {
  VictimOutcome out;
  const int64_t key = original.KeyOf(victim);
  Result<size_t> truth_index = published.FindByKey(key);
  if (!truth_index.ok()) {
    out.suppressed = true;
    return out;
  }
  Result<Trajectory> truth = original.Read(victim);
  if (!truth.ok()) {
    out.status = truth.status();
    return out;
  }
  const std::vector<Point> observations = SampleObservations(
      *truth, options.adversary, static_cast<uint64_t>(key));

  // Exact score of the true candidate first: the certified lower bound of
  // every other candidate is compared against it.
  Result<Trajectory> truth_published = published.Read(*truth_index);
  if (!truth_published.ok()) {
    out.status = truth_published.status();
    return out;
  }
  double s_true = 0.0;
  for (const Point& obs : observations) {
    s_true += SpatialDistance(truth_published->PositionAt(obs.t), obs);
  }
  out.scored = 1;

  // Walk the index: a candidate whose lower bound (sum of observation-to-
  // MBR distances) strictly exceeds s_true scores strictly worse than the
  // truth — it can neither outrank nor tie it, so it is counted as "worse"
  // without reading its block. Everything else is read and scored exactly;
  // ties are exact == on the score sum, the same as an exhaustive scan.
  size_t better = 0;
  size_t tied = 1;  // the truth itself
  const size_t n = published.size();
  if (options.run_context != nullptr) {
    options.run_context->ChargeCandidatePairs(n);
  }
  for (size_t j = 0; j < n; ++j) {
    if (j == *truth_index) {
      continue;
    }
    const store::StoreEntry& e = published.entry(j);
    double bound = 0.0;
    for (const Point& obs : observations) {
      bound += PointToEntryDistance(e, obs);
      if (bound > s_true) {
        break;
      }
    }
    if (bound > s_true) {
      ++out.pruned;
      continue;
    }
    Result<Trajectory> candidate = published.Read(j);
    if (!candidate.ok()) {
      out.status = candidate.status();
      return out;
    }
    if (options.run_context != nullptr) {
      options.run_context->ChargeDistance();
    }
    double score = 0.0;
    for (const Point& obs : observations) {
      score += SpatialDistance(candidate->PositionAt(obs.t), obs);
    }
    ++out.scored;
    if (score < s_true) {
      ++better;
    } else if (score == s_true) {
      ++tied;
    }
  }

  // Uniform tie-breaking over the tied block: expected rank is the block
  // midpoint; the truth lands in the top-m when it draws one of the first
  // m - better slots of the block.
  const double block = static_cast<double>(tied);
  out.rank = static_cast<double>(better) + (block + 1.0) / 2.0;
  out.top1 = better == 0 ? 1.0 / block : 0.0;
  if (better < 5) {
    out.top5 = std::min(block, 5.0 - static_cast<double>(better)) / block;
  }
  out.reciprocal = 1.0 / out.rank;
  return out;
}

}  // namespace

Result<ReidentResult> RunReidentAttack(const CandidateSource& original,
                                       const CandidateSource& published,
                                       const ReidentOptions& options) {
  if (original.size() == 0 || published.size() == 0) {
    return Status::InvalidArgument("attack needs non-empty datasets");
  }
  if (options.adversary.observations == 0) {
    return Status::InvalidArgument("need at least one observation");
  }
  WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
  WCOP_TRACE_SPAN(options.telemetry, "attack/reident");

  telemetry::Counter* victims_counter = nullptr;
  telemetry::Counter* candidates_counter = nullptr;
  telemetry::Counter* pruned_counter = nullptr;
  telemetry::Counter* top1_counter = nullptr;
  telemetry::Histogram* rank_histogram = nullptr;
  if (options.telemetry != nullptr) {
    auto& metrics = options.telemetry->metrics();
    victims_counter = metrics.GetCounter("attack.victims");
    candidates_counter = metrics.GetCounter("attack.candidates");
    pruned_counter = metrics.GetCounter("attack.candidates.pruned");
    top1_counter = metrics.GetCounter("attack.matches.top1");
    rank_histogram = metrics.GetHistogram("attack.rank");
  }

  // Victim selection: a deterministic shuffle of the victim universe,
  // independent of thread count (the per-victim observation streams are
  // keyed on the truth key, not on draw order).
  std::vector<size_t> victims(original.size());
  std::iota(victims.begin(), victims.end(), 0);
  if (options.num_victims > 0 && options.num_victims < victims.size()) {
    Rng rng(options.adversary.seed);
    std::shuffle(victims.begin(), victims.end(), rng.engine());
    victims.resize(options.num_victims);
    std::sort(victims.begin(), victims.end());
  }

  ReidentResult result;
  double top1_sum = 0.0;
  double top5_sum = 0.0;
  double rank_sum = 0.0;
  double reciprocal_sum = 0.0;

  // Victims are processed in bounded blocks: each block fans out over the
  // pool, then the coordinator reduces the outcomes in victim order and
  // reports progress — memory stays O(block), aggregation order stays
  // fixed, and a tripped RunContext surfaces between blocks.
  constexpr size_t kBlock = 256;
  parallel::ParallelOptions popts;
  popts.threads = options.threads;
  popts.grain = 1;
  popts.context = options.run_context;
  popts.telemetry = options.telemetry;
  for (size_t begin = 0; begin < victims.size(); begin += kBlock) {
    const size_t count = std::min(kBlock, victims.size() - begin);
    Result<std::vector<VictimOutcome>> outcomes =
        parallel::ParallelMap<VictimOutcome>(
            count,
            [&](size_t i) {
              return AttackVictim(original, published, victims[begin + i],
                                  options);
            },
            popts);
    if (!outcomes.ok()) {
      return outcomes.status();
    }
    for (const VictimOutcome& out : *outcomes) {
      if (!out.status.ok()) {
        return out.status;
      }
      if (out.suppressed) {
        ++result.victims_suppressed;
        continue;
      }
      ++result.victims_attacked;
      top1_sum += out.top1;
      top5_sum += out.top5;
      rank_sum += out.rank;
      reciprocal_sum += out.reciprocal;
      result.candidates_total += published.size();
      result.candidates_scored += out.scored;
      result.candidates_pruned += out.pruned;
      if (rank_histogram != nullptr) {
        rank_histogram->Record(
            static_cast<uint64_t>(std::llround(out.rank)));
      }
    }
    if (options.progress) {
      options.progress(std::min(begin + count, victims.size()),
                       victims.size());
    }
    WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
  }

  if (result.victims_attacked > 0) {
    const double n = static_cast<double>(result.victims_attacked);
    result.top1_success = top1_sum / n;
    result.top5_success = top5_sum / n;
    result.mean_true_rank = rank_sum / n;
    result.mean_reciprocal_rank = reciprocal_sum / n;
  }
  telemetry::CounterAdd(victims_counter, result.victims_attacked);
  telemetry::CounterAdd(candidates_counter, result.candidates_scored);
  telemetry::CounterAdd(pruned_counter, result.candidates_pruned);
  telemetry::CounterAdd(
      top1_counter, static_cast<uint64_t>(std::llround(top1_sum)));
  return result;
}

}  // namespace attack
}  // namespace wcop
