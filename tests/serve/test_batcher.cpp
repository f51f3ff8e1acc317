#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.h"
#include "serve_test_util.h"

namespace muffin::serve {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

TEST(Batcher, RejectsBadConfig) {
  EXPECT_THROW(Batcher<int>({0, microseconds(1000)}), Error);
  EXPECT_THROW(Batcher<int>({8, microseconds(-1)}), Error);
}

TEST(Batcher, SizeFlushReleasesFullBatchImmediately) {
  // Deadline far away: only the size trigger can release the batch.
  Batcher<int> batcher({8, std::chrono::duration_cast<microseconds>(
                               std::chrono::seconds(30))});
  for (int i = 0; i < 8; ++i) batcher.push(i);
  const auto before = steady_clock::now();
  const std::vector<int> batch = batcher.next_batch();
  const auto waited = steady_clock::now() - before;
  EXPECT_EQ(batch.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(batch[static_cast<std::size_t>(i)], i);
  EXPECT_LT(waited, std::chrono::seconds(5));  // did not sit out the deadline
}

TEST(Batcher, SizeFlushCapsOversizedBacklog) {
  Batcher<int> batcher({4, microseconds(1000)});
  for (int i = 0; i < 10; ++i) batcher.push(i);
  EXPECT_EQ(batcher.next_batch().size(), 4u);
  EXPECT_EQ(batcher.next_batch().size(), 4u);
  EXPECT_EQ(batcher.pending(), 2u);
}

TEST(Batcher, DeadlineFlushReleasesPartialBatch) {
  Batcher<int> batcher({64, std::chrono::duration_cast<microseconds>(
                                milliseconds(20))});
  batcher.push(1);
  batcher.push(2);
  batcher.push(3);
  const auto before = steady_clock::now();
  const std::vector<int> batch = batcher.next_batch();
  const auto waited = steady_clock::now() - before;
  EXPECT_EQ(batch.size(), 3u);
  // Released by the deadline, not by size — and without unbounded waiting.
  EXPECT_GE(waited, milliseconds(10));
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(Batcher, ConsumerWakesForLateProducer) {
  Batcher<int> batcher({2, std::chrono::duration_cast<microseconds>(
                               std::chrono::seconds(30))});
  std::thread producer([&batcher]() {
    std::this_thread::sleep_for(milliseconds(20));
    batcher.push(41);
    batcher.push(42);
  });
  const std::vector<int> batch = batcher.next_batch();  // blocks until push
  producer.join();
  EXPECT_EQ(batch.size(), 2u);
}

TEST(Batcher, CloseDrainsThenSignalsTermination) {
  Batcher<int> batcher({4, microseconds(1000)});
  for (int i = 0; i < 6; ++i) batcher.push(i);
  batcher.close();
  EXPECT_TRUE(batcher.closed());
  EXPECT_THROW(batcher.push(99), Error);
  EXPECT_EQ(batcher.next_batch().size(), 4u);  // drain
  EXPECT_EQ(batcher.next_batch().size(), 2u);  // drain remainder
  EXPECT_TRUE(batcher.next_batch().empty());   // termination signal
}

TEST(Batcher, DeadlineVsSizeFlushRaceLosesNothing) {
  // Producers push at a rate that makes both flush paths fire: bursts
  // trip the size flush, the gaps between bursts trip the deadline flush.
  // Whichever path wins any given race, no item may be lost, duplicated,
  // or batched beyond max_batch. The total (1503) is not divisible by
  // max_batch (4), so at least one partial (non-size) flush is guaranteed
  // no matter how the races resolve.
  constexpr std::size_t kProducers = 3;
  constexpr int kPerProducer = 501;
  Batcher<int> batcher({4, std::chrono::duration_cast<microseconds>(
                               milliseconds(1))});
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&batcher, p]() {
      for (int i = 0; i < kPerProducer; ++i) {
        batcher.push(static_cast<int>(p) * kPerProducer + i);
        if (i % 16 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
      }
    });
  }

  std::vector<int> received;
  received.reserve(kProducers * kPerProducer);
  std::size_t partial_flushes = 0;  // deadline or close-drain releases
  std::thread consumer([&]() {
    for (;;) {
      const std::vector<int> batch = batcher.next_batch();
      if (batch.empty()) return;  // closed and drained
      EXPECT_LE(batch.size(), 4u);
      if (batch.size() < 4) ++partial_flushes;
      received.insert(received.end(), batch.begin(), batch.end());
    }
  });
  for (auto& producer : producers) producer.join();
  batcher.close();
  consumer.join();

  EXPECT_GT(partial_flushes, 0u);  // the non-size path demonstrably fired
  ASSERT_EQ(received.size(), kProducers * kPerProducer);
  std::sort(received.begin(), received.end());
  for (std::size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i], static_cast<int>(i));  // no loss, no duplicates
  }
}

TEST(Batcher, DeadlineAnchorsToOldestItemNotNewest) {
  // One early item, then a trickle that keeps the queue non-empty: the
  // flush must happen ~max_delay after the FIRST push, not be pushed out
  // by later arrivals resetting the clock.
  Batcher<int> batcher({64, std::chrono::duration_cast<microseconds>(
                                milliseconds(50))});
  batcher.push(0);
  std::thread trickler([&batcher]() {
    for (int i = 1; i <= 4; ++i) {
      std::this_thread::sleep_for(milliseconds(40));
      batcher.push(i);
    }
  });
  const auto before = steady_clock::now();
  const std::vector<int> batch = batcher.next_batch();
  const auto waited = steady_clock::now() - before;
  trickler.join();
  EXPECT_GE(batch.size(), 1u);
  EXPECT_EQ(batch.front(), 0);
  // Flushed at the oldest item's 50 ms deadline, with 150 ms of slack
  // for a loaded CI runner. A newest-anchored batcher keeps resetting
  // the clock with each 40 ms arrival and cannot flush before 210 ms
  // (scheduling delay only pushes that later), so the bound separates
  // the two behaviors deterministically. Under ThreadSanitizer (~10x
  // slowdown) wall-clock bounds are unreliable, so only the
  // regression-detecting release build enforces the upper bound.
  EXPECT_GE(waited, milliseconds(40));
#if !MUFFIN_UNDER_TSAN
  EXPECT_LT(waited, milliseconds(200));
#endif
  // Drain the trickle that arrived after the flush.
  batcher.close();
  std::size_t drained = batch.size();
  for (;;) {
    const std::vector<int> rest = batcher.next_batch();
    if (rest.empty()) break;
    drained += rest.size();
  }
  EXPECT_EQ(drained, 5u);
}

TEST(Batcher, CloseWakesBlockedConsumer) {
  Batcher<int> batcher({8, std::chrono::duration_cast<microseconds>(
                               std::chrono::seconds(30))});
  std::thread closer([&batcher]() {
    std::this_thread::sleep_for(milliseconds(10));
    batcher.close();
  });
  EXPECT_TRUE(batcher.next_batch().empty());
  closer.join();
}

}  // namespace
}  // namespace muffin::serve
