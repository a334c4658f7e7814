#ifndef WCOP_COMMON_PARALLEL_H_
#define WCOP_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/telemetry.h"

namespace wcop {
namespace parallel {

/// Deterministic parallel execution layer of the WCOP pipeline
/// (DESIGN.md "Parallel execution").
///
/// The coarse-grained hot paths (per-cluster translation, the TRACLUS
/// segment-distance matrix, attack victims) fan their *pure* computations
/// out over a lazily-started process-wide thread pool while every ordering
/// and tie-breaking decision stays on the coordinating thread. Results are
/// written to caller-indexed slots, so the published output is
/// byte-identical between `threads == 1` and `threads == N` — see the
/// determinism contract in DESIGN.md.
///
/// Thread-count resolution, everywhere in the code base:
///   * `threads <= 0` — auto: the WCOP_THREADS environment variable when set
///     to a positive integer, otherwise std::thread::hardware_concurrency().
///   * `threads == 1` — the exact serial code path; the pool is never
///     touched (nor even started).
///   * `threads == N` — the calling thread plus N-1 pool workers cooperate.

/// std::thread::hardware_concurrency() clamped below at 1.
int HardwareThreads();

/// The process-wide default: WCOP_THREADS (parsed once, first call) when it
/// holds a positive integer, otherwise HardwareThreads().
int DefaultThreads();

/// Resolves a requested thread count: values <= 0 mean DefaultThreads().
int ResolveThreads(int requested);

/// Per-call configuration of ParallelFor / ParallelMap.
struct ParallelOptions {
  /// Total concurrency for this call (coordinator included); see the
  /// resolution rules above.
  int threads = 0;

  /// Minimum items per claimed chunk. 0 = auto (targets ~4 chunks per
  /// thread). Use 1 for heavy per-item work (EDR distances) so stragglers
  /// balance; larger grains amortize claiming overhead for cheap items.
  size_t grain = 0;

  /// Checked at every chunk boundary (cooperatively, coordinator and
  /// workers alike): a tripped context stops the claiming of further chunks
  /// and ParallelFor returns the trip Status. In-flight chunks complete, so
  /// callers that continue after a trip must treat completed slots as
  /// unordered partial output. Null = unbounded.
  const RunContext* context = nullptr;

  /// Optional sink for `parallel.tasks` / `parallel.batches` counters, the
  /// `parallel.queue_depth` / `parallel.threads` gauges, and per-worker
  /// "parallel/worker" trace spans. Null disables instrumentation.
  telemetry::Telemetry* telemetry = nullptr;
};

/// Lazily-started, process-wide worker pool. Use through ParallelFor /
/// ParallelMap; direct access exists for tests and for warm-up.
///
/// The pool is grow-only while running: EnsureWorkers(n) starts workers
/// until at least `n` are live. Shutdown() joins every worker (idempotent);
/// a later EnsureWorkers restarts the pool, so start/stop cycles are safe.
/// The process-exit destructor shuts the pool down cleanly.
class ThreadPool {
 public:
  static ThreadPool& Global();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Ensures at least `count` workers are running. Thread-safe; growing an
  /// already-running pool and re-requesting the current size are no-ops.
  void EnsureWorkers(int count);

  /// Joins all workers. Idempotent; concurrent ParallelFor calls finish
  /// their claimed chunks first (the coordinator always makes progress on
  /// its own thread, so no batch can deadlock against Shutdown).
  void Shutdown();

  int worker_count() const;

  /// Shared state of one ParallelFor call; defined in parallel.cc.
  struct Batch;

 private:
  friend Status ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                            const ParallelOptions& options);

  ThreadPool() = default;
  void WorkerLoop();
  void Submit(const std::shared_ptr<Batch>& batch);
  void Retire(const std::shared_ptr<Batch>& batch);

  /// Serializes start/stop cycles and guards `workers_`.
  mutable std::mutex lifecycle_mu_;
  std::vector<std::thread> workers_;

  /// Guards the batch queue and the shutdown flag; `wake_` signals both.
  mutable std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Batch>> batches_;
  bool shutdown_ = false;
};

/// Runs `fn(i)` for every i in [0, n), fanning chunks of `options.grain`
/// indices out across `options.threads` threads (the caller participates).
///
/// Guarantees:
///  * every index runs at most once; with an OK return, exactly once;
///  * `fn` must be safe to call concurrently for distinct indices — all
///    cross-item ordering belongs on the calling thread, after the return;
///  * the first exception thrown by `fn` is rethrown on the calling thread
///    (remaining chunks are abandoned);
///  * a tripped `options.context` stops chunk claiming and surfaces here as
///    the trip Status; with `threads == 1` the checks happen at the same
///    chunk boundaries, keeping serial and parallel trip behaviour aligned.
Status ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const ParallelOptions& options = {});

/// Chunked map: out[i] = fn(i) with results in index order (determinism is
/// the caller-visible property: the output never depends on scheduling).
/// T must be default-constructible and movable.
template <typename T>
Result<std::vector<T>> ParallelMap(size_t n,
                                   const std::function<T(size_t)>& fn,
                                   const ParallelOptions& options = {}) {
  std::vector<T> out(n);
  Status status = ParallelFor(
      n, [&out, &fn](size_t i) { out[i] = fn(i); }, options);
  if (!status.ok()) {
    return status;
  }
  return out;
}

}  // namespace parallel
}  // namespace wcop

#endif  // WCOP_COMMON_PARALLEL_H_
