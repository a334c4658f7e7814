#ifndef WCOP_TESTS_TEST_UTIL_H_
#define WCOP_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/snapshot.h"
#include "data/synthetic.h"
#include "store/store_file.h"
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

/// Appends `v` to `*out` as 8 little-endian bytes.
inline void AppendLe64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void AppendLeDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendLe64(out, bits);
}

/// Store bytes assembled by hand in the layout documented in
/// store/store_file.h, independently of TrajectoryStoreWriter: the header
/// carries `version`, block i is `payloads[i]` under a correct CRC, and
/// index row i describes `rows[i]` (pass a trajectory other than the one
/// the payload encodes to build a block that disagrees with its index).
inline std::string BuildStoreBytes(uint32_t version,
                                   const std::vector<Trajectory>& rows,
                                   const std::vector<std::string>& payloads) {
  std::string out("WCOPSTR1");
  AppendLe64(&out, version);  // u32 version | u32 reserved zero
  std::string index;
  AppendLe64(&index, rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Trajectory& t = rows[i];
    const std::string& payload = payloads[i];
    const uint64_t offset = out.size();
    AppendLe64(&out, payload.size() |  // u32 payload_size | u32 crc32
                         (uint64_t{Crc32(payload)} << 32));
    out += payload;
    const BoundingBox box = t.Bounds();
    AppendLe64(&index, static_cast<uint64_t>(t.id()));
    AppendLe64(&index, offset);
    AppendLe64(&index, 8 + payload.size());
    AppendLe64(&index, t.size());
    AppendLe64(&index, static_cast<uint64_t>(int64_t{t.requirement().k}));
    AppendLeDouble(&index, t.requirement().delta);
    AppendLeDouble(&index, box.min_x());
    AppendLeDouble(&index, box.min_y());
    AppendLeDouble(&index, box.max_x());
    AppendLeDouble(&index, box.max_y());
    AppendLeDouble(&index, t.StartTime());
    AppendLeDouble(&index, t.EndTime());
    AppendLe64(&index, 0);  // reserved
  }
  const uint64_t index_offset = out.size();
  out += "WCOPSIDX";
  out += index;
  std::string crc;
  AppendLe64(&crc, Crc32(index));
  out.append(crc, 0, 4);
  AppendLe64(&out, index_offset);
  out += "WCOPSEND";
  return out;
}

/// A version-1 store of `dataset`, as builds before format version 2 wrote
/// it: text block payloads (store::AppendTrajectoryRecord).
inline std::string BuildV1StoreBytes(const Dataset& dataset) {
  std::vector<std::string> payloads;
  for (const Trajectory& t : dataset.trajectories()) {
    payloads.emplace_back();
    store::AppendTrajectoryRecord(&payloads.back(), t);
  }
  return BuildStoreBytes(1, dataset.trajectories(), payloads);
}

}  // namespace testing_util
}  // namespace wcop

#endif  // WCOP_TESTS_TEST_UTIL_H_
