#ifndef WCOP_ATTACK_CANDIDATE_SOURCE_H_
#define WCOP_ATTACK_CANDIDATE_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/run_context.h"
#include "store/store_file.h"
#include "traj/dataset.h"

namespace wcop {
namespace attack {

/// Uniform candidate universe for the attacks: an indexed set of published
/// (or original) trajectories with per-entry metadata cheap enough to walk
/// without touching trajectory bytes, plus on-demand block reads. One
/// abstraction serves both in-memory Datasets (the bench and example
/// harnesses) and the out-of-core 500k-store audits — the index rows carry
/// the spatial MBR and lifetime that power the certified lower-bound
/// pruning of the re-identification scan (see reident.h).
///
/// Every entry has a *truth key*: the identity an attack's ground truth is
/// keyed on. For plain stores and datasets that is the trajectory id; for
/// the continuous pipeline's window stores — whose fragments get fresh ids
/// per window — it is the fragment's parent_id, i.e. the source trajectory
/// the fragment was cut from, so the same user carries the same key across
/// releases.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  virtual size_t size() const = 0;

  /// Index row of entry `i`: id, num_points, requirement (k, delta),
  /// spatial MBR and lifetime. Never touches the trajectory bytes.
  virtual const store::StoreEntry& entry(size_t i) const = 0;

  /// Materializes entry `i`. Thread-safe.
  virtual Result<Trajectory> Read(size_t i) const = 0;

  /// Truth key of entry `i` (see class comment).
  virtual int64_t KeyOf(size_t i) const = 0;

  /// First entry whose truth key is `key`; kNotFound when absent.
  Result<size_t> FindByKey(int64_t key) const;

 protected:
  /// Derived constructors fill this once the keys are known.
  std::unordered_map<int64_t, size_t> by_key_;
};

/// In-memory adapter over a Dataset (bench and example harnesses, unit
/// tests). Entries are synthesized from the trajectories; the truth
/// key is the trajectory id. The dataset must outlive the source.
class DatasetCandidateSource : public CandidateSource {
 public:
  explicit DatasetCandidateSource(const Dataset& dataset);

  size_t size() const override { return entries_.size(); }
  const store::StoreEntry& entry(size_t i) const override {
    return entries_[i];
  }
  Result<Trajectory> Read(size_t i) const override;
  int64_t KeyOf(size_t i) const override { return entries_[i].id; }

 private:
  const Dataset* dataset_;
  std::vector<store::StoreEntry> entries_;
};

/// Out-of-core adapter over a `.wst` store. With kId keys, opening costs
/// one index load and no block reads; with kParentId keys (window stores),
/// one sequential CRC-checked pass resolves each fragment's parent id —
/// memory stays one int64 per entry either way.
class StoreCandidateSource : public CandidateSource {
 public:
  enum class TruthKey { kId, kParentId };

  static Result<StoreCandidateSource> Open(
      const std::string& path, TruthKey truth_key = TruthKey::kId,
      const RunContext* context = nullptr);

  StoreCandidateSource(StoreCandidateSource&&) = default;
  StoreCandidateSource& operator=(StoreCandidateSource&&) = default;

  size_t size() const override { return reader_->size(); }
  const store::StoreEntry& entry(size_t i) const override {
    return reader_->index()[i];
  }
  Result<Trajectory> Read(size_t i) const override { return reader_->Read(i); }
  int64_t KeyOf(size_t i) const override { return keys_[i]; }

 private:
  StoreCandidateSource() = default;

  // unique_ptr keeps the source movable (Result<T> requires it).
  std::unique_ptr<store::TrajectoryStoreReader> reader_;
  std::vector<int64_t> keys_;
};

/// Spatial distance from `p` to the entry's MBR (0 when inside). Because
/// Trajectory::PositionAt clamps in time but never leaves the spatial MBR,
/// this is a certified lower bound on SpatialDistance(t.PositionAt(any t),
/// p) for the stored trajectory — the pruning predicate of the
/// re-identification scan and the effective-k prefilter.
double PointToEntryDistance(const store::StoreEntry& e, const Point& p);

}  // namespace attack
}  // namespace wcop

#endif  // WCOP_ATTACK_CANDIDATE_SOURCE_H_
