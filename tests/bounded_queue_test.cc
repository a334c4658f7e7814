#include "server/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace wcop {
namespace server {
namespace {

// ---------------------------------------------------------------------------
// Single-threaded semantics: the admission contract.
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1).ok());
  EXPECT_TRUE(queue.TryPush(2).ok());
  EXPECT_TRUE(queue.TryPush(3).ok());
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), 3);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, CapacityRejectionIsExplicitBackpressure) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1).ok());
  EXPECT_TRUE(queue.TryPush(2).ok());
  const Status rejected = queue.TryPush(3);
  ASSERT_FALSE(rejected.ok());
  // The backpressure signal: a distinct, retryable code — never a silent
  // drop, never a block.
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.size(), 2u);
  // Draining one slot re-opens admission.
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_TRUE(queue.TryPush(3).ok());
}

TEST(BoundedQueueTest, ZeroCapacityClampsToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.TryPush(7).ok());
  EXPECT_EQ(queue.TryPush(8).code(), StatusCode::kResourceExhausted);
}

TEST(BoundedQueueTest, ClosedQueueRejectsPushes) {
  BoundedQueue<int> queue(4);
  queue.Close(/*drain=*/true);
  EXPECT_TRUE(queue.closed());
  EXPECT_EQ(queue.TryPush(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(queue.ForcePush(1).code(), StatusCode::kFailedPrecondition);
}

TEST(BoundedQueueTest, ForcePushBypassesCapacity) {
  // The recovery path: ledger-recovered jobs were admitted in a previous
  // life and must never be bounced by the live capacity check.
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.TryPush(1).ok());
  EXPECT_EQ(queue.TryPush(2).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(queue.ForcePush(2).ok());
  EXPECT_TRUE(queue.ForcePush(3).ok());
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), 3);
}

TEST(BoundedQueueTest, DrainCloseHandsOutRemainingItemsInOrder) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1).ok());
  EXPECT_TRUE(queue.TryPush(2).ok());
  queue.Close(/*drain=*/true);
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), std::nullopt);
  EXPECT_EQ(queue.Pop(), std::nullopt);  // stays terminal
}

TEST(BoundedQueueTest, ImmediateCloseAbandonsQueuedItems) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1).ok());
  EXPECT_TRUE(queue.TryPush(2).ok());
  queue.Close(/*drain=*/false);
  // Items are abandoned in place (still durable in the ledger, service-side)
  // and consumers wake with "no more work".
  EXPECT_EQ(queue.Pop(), std::nullopt);
  EXPECT_EQ(queue.TryPop(), std::nullopt);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueueTest, ImmediateCloseWinsOverDrain) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.TryPush(1).ok());
  queue.Close(/*drain=*/true);
  queue.Close(/*drain=*/false);  // escalation: drain -> immediate
  EXPECT_EQ(queue.Pop(), std::nullopt);
  // And the reverse order must not resurrect draining.
  queue.Close(/*drain=*/true);
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(BoundedQueueTest, TryPopReturnsItemsWithoutBlocking) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.TryPop(), std::nullopt);
  EXPECT_TRUE(queue.TryPush(5).ok());
  EXPECT_EQ(queue.TryPop(), 5);
  EXPECT_EQ(queue.TryPop(), std::nullopt);
}

// ---------------------------------------------------------------------------
// Concurrency: the shapes the service actually runs (stress these under
// TSan; the CI tsan job builds this binary).
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, PopBlocksUntilPush) {
  BoundedQueue<int> queue(1);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    EXPECT_EQ(queue.Pop(), 42);
    popped.store(true);
  });
  // Not a timing assertion, just a handoff: the consumer parks until the
  // producer arrives.
  EXPECT_TRUE(queue.TryPush(42).ok());
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(BoundedQueueTest, ConcurrentProducersNeverOversubscribe) {
  // Many producers hammer a small queue while consumers drain it. Every
  // accepted item must come out exactly once; rejections must account for
  // the rest; the queue must never exceed capacity.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  constexpr size_t kCapacity = 3;
  BoundedQueue<int> queue(kCapacity);

  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int item = p * kPerProducer + i;
        const Status s = queue.TryPush(item);
        if (s.ok()) {
          accepted.fetch_add(1);
        } else {
          ASSERT_EQ(s.code(), StatusCode::kResourceExhausted);
          rejected.fetch_add(1);
        }
        ASSERT_LE(queue.size(), kCapacity);
      }
    });
  }

  std::mutex popped_mu;
  std::set<int> popped;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (std::optional<int> item = queue.Pop()) {
        std::lock_guard<std::mutex> lock(popped_mu);
        const bool inserted = popped.insert(*item).second;
        ASSERT_TRUE(inserted) << "item " << *item << " popped twice";
      }
    });
  }

  for (std::thread& t : producers) {
    t.join();
  }
  queue.Close(/*drain=*/true);
  for (std::thread& t : consumers) {
    t.join();
  }

  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped.size(), static_cast<size_t>(accepted.load()));
  EXPECT_GT(rejected.load(), 0) << "capacity 3 under 4 producers must "
                                   "exercise the rejection path";
}

TEST(BoundedQueueTest, DrainShutdownDeliversEverythingAcceptedInFifoOrder) {
  // Single consumer so FIFO is observable end to end across the shutdown.
  BoundedQueue<int> queue(64);
  std::vector<int> received;
  std::thread consumer([&] {
    while (std::optional<int> item = queue.Pop()) {
      received.push_back(*item);
    }
  });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(queue.TryPush(i).ok());
  }
  queue.Close(/*drain=*/true);
  consumer.join();
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(received[static_cast<size_t>(i)], i);
  }
}

TEST(BoundedQueueTest, ImmediateShutdownWakesBlockedConsumers) {
  BoundedQueue<int> queue(1);
  std::vector<std::thread> consumers;
  std::atomic<int> woke{0};
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      EXPECT_EQ(queue.Pop(), std::nullopt);
      woke.fetch_add(1);
    });
  }
  queue.Close(/*drain=*/false);
  for (std::thread& t : consumers) {
    t.join();
  }
  EXPECT_EQ(woke.load(), 3);
}

TEST(BoundedQueueTest, WaitIdleWaitsForPoppedItemsUntilDone) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.TryPush(1).ok());
  ASSERT_EQ(queue.Pop(), 1);  // out of the queue, not yet Done
  std::atomic<bool> idle{false};
  std::thread waiter([&] {
    queue.WaitIdle();
    idle.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(idle.load());
  queue.Done();
  waiter.join();
  EXPECT_TRUE(idle.load());
}

TEST(BoundedQueueTest, ItemsAbandonedByImmediateCloseDoNotBlockWaitIdle) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.TryPush(1).ok());
  ASSERT_TRUE(queue.TryPush(2).ok());
  queue.Close(/*drain=*/false);
  queue.WaitIdle();  // no consumer will ever take them
  EXPECT_EQ(queue.size(), 2u);
}

}  // namespace
}  // namespace server
}  // namespace wcop
