#ifndef WCOP_SERVER_BOUNDED_QUEUE_H_
#define WCOP_SERVER_BOUNDED_QUEUE_H_

/// Bounded thread-safe submission queue — the backpressure primitive of the
/// anonymization service (DESIGN.md "Service operation & fault tolerance").
///
/// Producers (the admission path) never block: TryPush either enqueues or
/// fails fast with kResourceExhausted, which the service surfaces to the
/// client as an explicit 429. Consumers (the worker pool) block in Pop
/// until an item or shutdown arrives. Close() picks the shutdown flavour:
/// drain=true lets consumers empty the queue in FIFO order first,
/// drain=false wakes them immediately and abandons queued items (safe for
/// the service because every accepted job is already durable in the
/// ledger — an abandoned item is re-enqueued from the ledger on restart).
///
/// ForcePush exists for exactly that restart path: recovered jobs were
/// admitted in a previous life, so re-admitting them must not compete with
/// (or be rejected by) the live capacity check.
///
/// An item handed out by Pop stays *in flight* until the consumer calls
/// Done(). Removal and the in-flight count change under one lock, so
/// WaitIdle never sees a popped item in neither place.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/status.h"

namespace wcop {
namespace server {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Admission path: enqueues or fails fast. kResourceExhausted when the
  /// queue is at capacity (the backpressure signal), kFailedPrecondition
  /// when the queue is closed (shutting down). Never blocks.
  Status TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return Status::FailedPrecondition("queue is closed");
      }
      if (items_.size() >= capacity_) {
        return Status::ResourceExhausted("submission queue is at capacity");
      }
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return Status::OK();
  }

  /// Recovery path: enqueues past the capacity check. Only closure can
  /// fail it. Used to re-inject ledger-recovered jobs at startup, which
  /// must never be bounced by live-traffic backpressure.
  Status ForcePush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return Status::FailedPrecondition("queue is closed");
      }
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return Status::OK();
  }

  /// Blocks until an item is available or the queue shuts down. Returns
  /// nullopt exactly when no more items will ever be handed out: closed
  /// with drain=false, or closed with drain=true and emptied. Items come
  /// out in FIFO push order; each one is in flight until Done().
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return TakeFrontLocked();
  }

  /// Non-blocking Pop variant for tests: nullopt when empty or abandoned.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    return TakeFrontLocked();
  }

  /// The consumer finished an item it popped.
  void Done() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    idle_.notify_all();
  }

  /// Blocks until nothing is queued and nothing is in flight. Items
  /// abandoned by Close(drain=false) do not count: no consumer will ever
  /// take them.
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [&] {
      return in_flight_ == 0 && (items_.empty() || (closed_ && !drain_));
    });
  }

  /// Stops intake. drain=true: consumers keep popping until empty (FIFO).
  /// drain=false: consumers wake with nullopt immediately; queued items
  /// are abandoned in place. Idempotent; drain=false wins when both are
  /// requested.
  void Close(bool drain) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      drain_ = drain_ && drain;
    }
    ready_.notify_all();
    idle_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  std::optional<T> TakeFrontLocked() {
    if (items_.empty() || (closed_ && !drain_)) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    ++in_flight_;
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::condition_variable idle_;
  std::deque<T> items_;
  size_t in_flight_ = 0;
  bool closed_ = false;
  bool drain_ = true;
};

}  // namespace server
}  // namespace wcop

#endif  // WCOP_SERVER_BOUNDED_QUEUE_H_
