#include "distance/edr.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "distance/edr_kernel.h"

namespace wcop {

EdrTolerance EdrTolerance::FromDeltaMax(double delta_max, double avg_speed) {
  EdrTolerance tol;
  tol.dx = 10.0 * delta_max;
  tol.dy = 10.0 * delta_max;
  tol.dt = avg_speed > 0.0 ? 10.0 * delta_max / avg_speed
                           : std::numeric_limits<double>::infinity();
  return tol;
}

bool EdrTolerance::Matches(const Point& a, const Point& b) const {
  return std::abs(a.x - b.x) <= dx && std::abs(a.y - b.y) <= dy &&
         std::abs(a.t - b.t) <= dt;
}

double EdrDistance(const Trajectory& a, const Trajectory& b,
                   const EdrTolerance& tolerance) {
  // Full-width evaluation through the kernel dispatch (scalar DP for small
  // shapes, bit-parallel for long ones); every kernel is bit-identical to
  // the classic two-row DP.
  const uint32_t full =
      static_cast<uint32_t>(std::max(a.size(), b.size()));
  return static_cast<double>(EdrOps(a, b, tolerance, full).ops);
}

double EdrDistance(const Trajectory& a, const Trajectory& b,
                   const EdrTolerance& tolerance, double cutoff,
                   bool* abandoned) {
  const double bound = a.size() >= b.size()
                           ? static_cast<double>(a.size() - b.size())
                           : static_cast<double>(b.size() - a.size());
  if (bound > cutoff) {
    if (abandoned != nullptr) {
      *abandoned = true;
    }
    return bound;
  }
  if (abandoned != nullptr) {
    *abandoned = false;
  }
  return EdrDistance(a, b, tolerance);
}

double NormalizedEdrDistance(const Trajectory& a, const Trajectory& b,
                             const EdrTolerance& tolerance) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) {
    return 0.0;
  }
  return EdrDistance(a, b, tolerance) / static_cast<double>(longest);
}

std::vector<EdrOp> EdrOpSequence(const Trajectory& traj,
                                 const Trajectory& pivot,
                                 const EdrTolerance& tolerance) {
  const size_t n = traj.size();
  const size_t m = pivot.size();
  // Full DP table for backtracking. dp[i][j] = EDR(traj[0..i), pivot[0..j)).
  std::vector<std::vector<uint32_t>> dp(n + 1, std::vector<uint32_t>(m + 1));
  for (size_t i = 0; i <= n; ++i) {
    dp[i][0] = static_cast<uint32_t>(i);
  }
  for (size_t j = 0; j <= m; ++j) {
    dp[0][j] = static_cast<uint32_t>(j);
  }
  for (size_t i = 1; i <= n; ++i) {
    const Point& pa = traj[i - 1];
    for (size_t j = 1; j <= m; ++j) {
      const uint32_t subcost = tolerance.Matches(pa, pivot[j - 1]) ? 0u : 1u;
      dp[i][j] = std::min(
          {dp[i - 1][j - 1] + subcost, dp[i - 1][j] + 1u, dp[i][j - 1] + 1u});
    }
  }

  // Backtrack from (n, m). Prefer true matches; among edits prefer the one
  // that keeps the alignment balanced (diagonal substitutions are decomposed
  // into a delete-from-traj plus a delete-from-pivot so that Algorithm 4 sees
  // only match/delete ops, mirroring how W4M replays the script).
  std::vector<EdrOp> reversed;
  size_t i = n, j = m;
  while (i > 0 || j > 0) {
    if (i > 0 && j > 0 && tolerance.Matches(traj[i - 1], pivot[j - 1]) &&
        dp[i][j] == dp[i - 1][j - 1]) {
      reversed.push_back(EdrOp{EdrOp::Kind::kMatch, i - 1, j - 1});
      --i;
      --j;
      continue;
    }
    if (i > 0 && j > 0 && dp[i][j] == dp[i - 1][j - 1] + 1) {
      // Substitution: traj point replaced by a fresh point near the pivot's.
      reversed.push_back(EdrOp{EdrOp::Kind::kDeleteFromPivot, 0, j - 1});
      reversed.push_back(EdrOp{EdrOp::Kind::kDeleteFromTraj, i - 1, 0});
      --i;
      --j;
      continue;
    }
    if (i > 0 && dp[i][j] == dp[i - 1][j] + 1) {
      reversed.push_back(EdrOp{EdrOp::Kind::kDeleteFromTraj, i - 1, 0});
      --i;
      continue;
    }
    // j > 0 must hold here.
    reversed.push_back(EdrOp{EdrOp::Kind::kDeleteFromPivot, 0, j - 1});
    --j;
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

bool IsValidOpSequence(const std::vector<EdrOp>& ops, size_t traj_size,
                       size_t pivot_size) {
  size_t next_traj = 0;
  size_t next_pivot = 0;
  for (const EdrOp& op : ops) {
    switch (op.kind) {
      case EdrOp::Kind::kMatch:
        if (op.traj_index != next_traj || op.pivot_index != next_pivot) {
          return false;
        }
        ++next_traj;
        ++next_pivot;
        break;
      case EdrOp::Kind::kDeleteFromTraj:
        if (op.traj_index != next_traj) {
          return false;
        }
        ++next_traj;
        break;
      case EdrOp::Kind::kDeleteFromPivot:
        if (op.pivot_index != next_pivot) {
          return false;
        }
        ++next_pivot;
        break;
    }
  }
  return next_traj == traj_size && next_pivot == pivot_size;
}

}  // namespace wcop
