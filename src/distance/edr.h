#ifndef WCOP_DISTANCE_EDR_H_
#define WCOP_DISTANCE_EDR_H_

#include <limits>
#include <vector>

#include "traj/trajectory.h"

namespace wcop {

/// Edit Distance on Real sequence (Chen, Özsu & Oria, SIGMOD 2005), in the
/// time-tolerant form W4M uses: two points match when they are within the
/// per-axis tolerances dx, dy *and* within dt seconds of each other.
///
/// The paper (Section 6.1) sets the tolerance triple as a heuristic of
/// delta_max:  Delta = {10*delta_max, 10*delta_max, 10*delta_max/avg_speed}.
struct EdrTolerance {
  double dx = 0.0;
  double dy = 0.0;
  double dt = std::numeric_limits<double>::infinity();

  /// The paper's heuristic tolerance (Section 6.1).
  static EdrTolerance FromDeltaMax(double delta_max, double avg_speed);

  /// True iff `a` and `b` match under this tolerance.
  bool Matches(const Point& a, const Point& b) const;
};

/// One step of the optimal EDR edit script between a trajectory tau and a
/// pivot tau_c (Algorithm 4 consumes this sequence).
struct EdrOp {
  enum class Kind {
    kMatch,            ///< tau[i] matches pivot[j]
    kDeleteFromTraj,   ///< tau[i] has no counterpart (dropped by translation)
    kDeleteFromPivot,  ///< pivot[j] has no counterpart (translation *creates*
                       ///< a point near pivot[j] instead of deleting)
  };
  Kind kind;
  size_t traj_index = 0;   ///< valid for kMatch and kDeleteFromTraj
  size_t pivot_index = 0;  ///< valid for kMatch and kDeleteFromPivot
};

/// EDR distance (number of edit operations: unmatched-pair substitutions cost
/// 1, insertions/deletions cost 1). Runs in O(|a|*|b|) time and O(min) space.
double EdrDistance(const Trajectory& a, const Trajectory& b,
                   const EdrTolerance& tolerance);

/// Early-abandoning EDR: every alignment must delete or create at least
/// ||a|-|b|| points, so EDR >= ||a|-|b||. When that length lower bound alone
/// exceeds `cutoff`, returns the bound immediately — a value that is > cutoff
/// and <= the true distance — without filling the DP table; `abandoned`
/// (optional) reports which case ran. Callers that only compare the result
/// against `cutoff` (nearest-candidate scans) get the same decision either
/// way at O(1) instead of O(|a|*|b|) for hopeless pairs.
double EdrDistance(const Trajectory& a, const Trajectory& b,
                   const EdrTolerance& tolerance, double cutoff,
                   bool* abandoned);

/// EDR distance normalized by max(|a|, |b|), in [0, 1]. Useful when
/// comparing trajectories of very different lengths.
double NormalizedEdrDistance(const Trajectory& a, const Trajectory& b,
                             const EdrTolerance& tolerance);

/// Reconstructs one optimal EDR edit script transforming `traj` so that it
/// aligns with `pivot` (ops are emitted in order of increasing indices).
/// O(|traj|*|pivot|) time and space.
std::vector<EdrOp> EdrOpSequence(const Trajectory& traj,
                                 const Trajectory& pivot,
                                 const EdrTolerance& tolerance);

/// Applies sanity checks to an op sequence: indices strictly increase per
/// side and jointly cover every point of both trajectories exactly once.
/// Used by tests and debug assertions.
bool IsValidOpSequence(const std::vector<EdrOp>& ops, size_t traj_size,
                       size_t pivot_size);

}  // namespace wcop

#endif  // WCOP_DISTANCE_EDR_H_
