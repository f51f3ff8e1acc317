// parallel_for (common/parallel_for.h): partition rules, coverage,
// exception propagation and nested-use safety.
//
// The partition rules are pinned through partition_blocks() so they are
// machine-independent; the runtime tests exercise whatever pool the host
// provides (on multi-core CI the blocks genuinely run concurrently, and
// the TSan job runs this suite to hunt races).
#include "common/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace muffin::common {
namespace {

TEST(PartitionBlocks, CoversEveryIndexExactlyOnce) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{7}, std::size_t{13},
                              std::size_t{64}, std::size_t{1000},
                              std::size_t{1023}}) {
    for (const std::size_t grain :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{16},
          std::size_t{5000}}) {
      for (const std::size_t workers :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8},
            std::size_t{64}}) {
        const auto blocks = partition_blocks(n, grain, workers);
        if (n == 0) {
          EXPECT_TRUE(blocks.empty());
          continue;
        }
        ASSERT_FALSE(blocks.empty());
        EXPECT_LE(blocks.size(), workers);
        // Contiguous ascending cover of [0, n), each block non-empty and
        // at least `grain` long.
        std::size_t cursor = 0;
        for (const auto& [begin, end] : blocks) {
          EXPECT_EQ(begin, cursor);
          EXPECT_LT(begin, end);
          EXPECT_GE(end - begin, std::max<std::size_t>(1, std::min(grain, n)))
              << "n=" << n << " grain=" << grain << " workers=" << workers;
          cursor = end;
        }
        EXPECT_EQ(cursor, n);
      }
    }
  }
}

TEST(ParallelFor, EveryIndexVisitedExactlyOnce) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{1001}}) {
    // Non-atomic ints are safe: blocks are disjoint, and the futures give
    // the happens-before edge back to this thread.
    std::vector<int> visits(n, 0);
    parallel_for(n, 3, [&](std::size_t begin, std::size_t end) {
      ASSERT_LT(begin, end);
      for (std::size_t i = begin; i < end; ++i) ++visits[i];
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i], 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ParallelFor, ZeroRangeNeverCallsBody) {
  bool called = false;
  parallel_for(0, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ExceptionFromWorkerBlockPropagates) {
  // Big n + grain 1 so multi-core hosts genuinely split; the throwing
  // block may run on a pool worker or inline, and either way the caller
  // must see the exception after every block finished.
  constexpr std::size_t kN = 1024;
  std::atomic<std::size_t> visited{0};
  try {
    parallel_for(kN, 1, [&](std::size_t begin, std::size_t end) {
      visited.fetch_add(end - begin);
      if (begin == 0) throw std::runtime_error("block failure");
    });
    FAIL() << "expected the block exception to propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "block failure");
  }
  EXPECT_EQ(visited.load(), kN);  // no block was abandoned mid-flight
}

TEST(ParallelFor, NestedCallFromPoolWorkerRunsInline) {
  // An engine batch job scoring calibrated bodies must not re-enter the
  // pool: the nested parallel_for has to run serially on the same worker
  // thread.
  auto future = global_pool().submit([]() {
    EXPECT_NE(ThreadPool::current_worker(), ThreadPool::npos);
    const std::thread::id worker_id = std::this_thread::get_id();
    std::set<std::thread::id> body_threads;
    std::size_t calls = 0;
    parallel_for(512, 1, [&](std::size_t, std::size_t) {
      body_threads.insert(std::this_thread::get_id());
      ++calls;
    });
    EXPECT_EQ(calls, 1u);  // one serial block
    EXPECT_EQ(body_threads.size(), 1u);
    EXPECT_EQ(*body_threads.begin(), worker_id);
  });
  future.get();
}

TEST(ParallelFor, NestedCallInsideParallelForRunsInline) {
  std::atomic<std::size_t> inner_total{0};
  parallel_for(64, 1, [&](std::size_t begin, std::size_t end) {
    // Inner splits either run inline (when this block landed on a pool
    // worker) or see the caller-thread path; both must cover the range.
    parallel_for(end - begin, 1, [&](std::size_t b, std::size_t e) {
      inner_total.fetch_add(e - b);
    });
  });
  EXPECT_EQ(inner_total.load(), 64u);
}

TEST(ParallelFor, ConcurrentCallersBothComplete) {
  // Two non-worker threads using the shared pool at once: blocks
  // interleave in the queue and every index is still covered exactly once
  // per caller.
  std::vector<int> a(4096, 0);
  std::vector<int> b(4096, 0);
  std::thread other([&]() {
    parallel_for(b.size(), 16, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++b[i];
    });
  });
  parallel_for(a.size(), 16, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++a[i];
  });
  other.join();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], 1);
    ASSERT_EQ(b[i], 1);
  }
}

TEST(GlobalPool, SingletonAndSized) {
  ThreadPool& pool = global_pool();
  EXPECT_EQ(&pool, &global_pool());
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.size(), global_pool_size());
}

}  // namespace
}  // namespace muffin::common
