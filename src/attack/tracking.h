#ifndef WCOP_ATTACK_TRACKING_H_
#define WCOP_ATTACK_TRACKING_H_

#include <cstddef>
#include <cstdint>

#include "common/result.h"
#include "common/run_context.h"
#include "common/telemetry.h"
#include "traj/dataset.h"

namespace wcop {
namespace attack {

/// The *tracking* adversary of the path-confusion literature (Hoh &
/// Gruteser): the attacker knows where the victim started and follows the
/// published data forward in time, at each step continuing with the
/// published trajectory closest to the tracked position. Crossing paths
/// (fake or real) make the tracker switch onto the wrong user — the
/// confusion that Path Perturbation creates and that pure linkage metrics
/// cannot see.
struct TrackingOptions {
  double step_seconds = 60.0;  ///< tracker update cadence
  size_t num_victims = 0;      ///< 0 = every original trajectory
  uint64_t seed = 99;

  /// Optional deadline / cancellation / budget, honored per victim; each
  /// tracking step charges the candidate scan as candidate pairs.
  const RunContext* run_context = nullptr;

  /// Optional metric sink (`attack.tracking.victims`,
  /// `attack.tracking.steps`, `attack.tracking.switches`).
  telemetry::Telemetry* telemetry = nullptr;
};

struct TrackingResult {
  size_t victims_tracked = 0;
  size_t end_on_victim = 0;       ///< tracker finished on the right user
  double tracking_success_rate = 0.0;
  double mean_path_switches = 0.0;  ///< how often the tracker changed
                                    ///< trajectories mid-chase
  /// Fraction of tracking steps spent on the correct trajectory, averaged
  /// over victims — the robust exposure measure (a tracker can lose the
  /// target at the very end and still have observed the entire journey).
  double mean_time_on_target = 0.0;
};

/// Tracks each victim of `original` through `published`. Victims whose
/// trajectory was suppressed from `published` are skipped. Fails on empty
/// inputs or a non-positive step.
Result<TrackingResult> RunTrackingAttack(const Dataset& original,
                                         const Dataset& published,
                                         const TrackingOptions& options = {});

}  // namespace attack
}  // namespace wcop

#endif  // WCOP_ATTACK_TRACKING_H_
