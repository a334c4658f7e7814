#include "attack/tracking.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"

namespace wcop {
namespace attack {

Result<TrackingResult> RunTrackingAttack(const Dataset& original,
                                         const Dataset& published,
                                         const TrackingOptions& options) {
  if (original.empty() || published.empty()) {
    return Status::InvalidArgument("attack needs non-empty datasets");
  }
  if (options.step_seconds <= 0.0) {
    return Status::InvalidArgument("step_seconds must be positive");
  }
  WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
  WCOP_TRACE_SPAN(options.telemetry, "attack/tracking");
  telemetry::Counter* victims_counter = nullptr;
  telemetry::Counter* steps_counter = nullptr;
  telemetry::Counter* switches_counter = nullptr;
  if (options.telemetry != nullptr) {
    auto& metrics = options.telemetry->metrics();
    victims_counter = metrics.GetCounter("attack.tracking.victims");
    steps_counter = metrics.GetCounter("attack.tracking.steps");
    switches_counter = metrics.GetCounter("attack.tracking.switches");
  }
  Rng rng(options.seed);

  std::vector<size_t> victims(original.size());
  std::iota(victims.begin(), victims.end(), 0);
  if (options.num_victims > 0 && options.num_victims < victims.size()) {
    std::shuffle(victims.begin(), victims.end(), rng.engine());
    victims.resize(options.num_victims);
  }

  TrackingResult result;
  double switch_sum = 0.0;
  double on_target_sum = 0.0;
  for (size_t victim : victims) {
    WCOP_RETURN_IF_ERROR(CheckRunContext(options.run_context));
    const Trajectory& truth = original[victim];
    if (published.FindById(truth.id()) == nullptr) {
      continue;
    }
    // The tracker starts at the victim's true initial position and walks
    // the published data forward: it extrapolates the target's motion
    // (constant velocity over the last step) and re-acquires the published
    // trajectory closest to the predicted position — the standard
    // multi-target tracking model the path-confusion literature assumes.
    Point tracked = truth.front();
    double vel_x = 0.0, vel_y = 0.0;
    int64_t current_id = -1;
    size_t switches = 0;
    size_t steps = 0;
    size_t steps_on_target = 0;
    bool first_acquisition = true;
    for (double t = truth.StartTime(); t <= truth.EndTime();
         t += options.step_seconds) {
      if (options.run_context != nullptr) {
        options.run_context->ChargeCandidatePairs(published.size());
      }
      const double predicted_x =
          tracked.x + vel_x * options.step_seconds;
      const double predicted_y =
          tracked.y + vel_y * options.step_seconds;
      const Trajectory* best = nullptr;
      double best_d = std::numeric_limits<double>::infinity();
      for (const Trajectory& candidate : published.trajectories()) {
        if (t < candidate.StartTime() - options.step_seconds ||
            t > candidate.EndTime() + options.step_seconds) {
          continue;
        }
        const Point pos = candidate.PositionAt(t);
        const double dx = pos.x - predicted_x;
        const double dy = pos.y - predicted_y;
        const double d = std::sqrt(dx * dx + dy * dy);
        if (d < best_d) {
          best_d = d;
          best = &candidate;
        }
      }
      if (best == nullptr) {
        continue;  // nobody alive near this time: tracker idles
      }
      if (best->id() != current_id) {
        if (!first_acquisition) {
          ++switches;
        }
        current_id = best->id();
        first_acquisition = false;
      }
      const Point next = best->PositionAt(t);
      if (!first_acquisition && options.step_seconds > 0.0) {
        vel_x = (next.x - tracked.x) / options.step_seconds;
        vel_y = (next.y - tracked.y) / options.step_seconds;
      }
      tracked = next;
      ++steps;
      if (current_id == truth.id()) {
        ++steps_on_target;
      }
    }
    ++result.victims_tracked;
    telemetry::CounterAdd(steps_counter, steps);
    telemetry::CounterAdd(switches_counter, switches);
    if (current_id == truth.id()) {
      ++result.end_on_victim;
    }
    switch_sum += static_cast<double>(switches);
    on_target_sum += steps == 0 ? 0.0
                                : static_cast<double>(steps_on_target) /
                                      static_cast<double>(steps);
  }
  if (result.victims_tracked > 0) {
    const double n = static_cast<double>(result.victims_tracked);
    result.tracking_success_rate =
        static_cast<double>(result.end_on_victim) / n;
    result.mean_path_switches = switch_sum / n;
    result.mean_time_on_target = on_target_sum / n;
  }
  telemetry::CounterAdd(victims_counter, result.victims_tracked);
  return result;
}

}  // namespace attack
}  // namespace wcop
