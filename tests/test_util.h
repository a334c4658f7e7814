#ifndef WCOP_TESTS_TEST_UTIL_H_
#define WCOP_TESTS_TEST_UTIL_H_

#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "traj/dataset.h"
#include "traj/trajectory.h"

namespace wcop {
namespace testing_util {

/// Straight-line trajectory: n points from (x0, y0) stepping (dx, dy) every
/// dt seconds starting at t0.
inline Trajectory MakeLine(int64_t id, double x0, double y0, double dx,
                           double dy, size_t n, double dt = 1.0,
                           double t0 = 0.0) {
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.emplace_back(x0 + dx * static_cast<double>(i),
                        y0 + dy * static_cast<double>(i),
                        t0 + dt * static_cast<double>(i));
  }
  return Trajectory(id, std::move(points));
}

/// As MakeLine but with a requirement attached.
inline Trajectory MakeLineWithReq(int64_t id, double x0, double y0, double dx,
                                  double dy, size_t n, int k, double delta,
                                  double dt = 1.0, double t0 = 0.0) {
  Trajectory t = MakeLine(id, x0, y0, dx, dy, n, dt, t0);
  t.set_requirement(Requirement{k, delta});
  return t;
}

/// Small, fast synthetic dataset for end-to-end tests: `n` trajectories of
/// `points` points each, with uniform random requirements.
inline Dataset SmallSynthetic(size_t n = 40, size_t points = 60,
                              int k_max = 5, double delta_max = 250.0,
                              uint64_t seed = 11) {
  SyntheticOptions options;
  options.seed = seed;
  options.num_users = std::max<size_t>(4, n / 3);
  options.num_trajectories = n;
  options.points_per_trajectory = points;
  options.sampling_interval = 10.0;
  options.region_half_diagonal = 8000.0;
  options.num_hubs = 6;
  options.num_routes = 5;
  options.dataset_duration_days = 10.0;
  Dataset dataset = GenerateSyntheticGeoLife(options).value();
  Rng rng(seed + 1);
  AssignUniformRequirements(&dataset, 2, k_max, 10.0, delta_max, &rng);
  return dataset;
}

/// Nine users co-travelling in three groups (k = 2, delta = 300) over
/// [0, 90] s, silent, then back over [300, 390] s as fresh trajectories:
/// with 100 s windows from t = 0, windows 1 and 2 hold no sample at all.
inline Dataset GapDataset() {
  std::vector<Trajectory> trajectories;
  int64_t id = 0;
  for (const double t0 : {0.0, 300.0}) {
    for (int g = 0; g < 3; ++g) {
      for (int i = 0; i < 3; ++i) {
        Trajectory t = MakeLineWithReq(id, 2000.0 * g, 30.0 * i, 5.0, 0.0,
                                       /*n=*/10, /*k=*/2, /*delta=*/300.0,
                                       /*dt=*/10.0, t0);
        t.set_object_id(3 * g + i);
        trajectories.push_back(std::move(t));
        ++id;
      }
    }
  }
  return Dataset(std::move(trajectories));
}

}  // namespace testing_util
}  // namespace wcop

#endif  // WCOP_TESTS_TEST_UTIL_H_
