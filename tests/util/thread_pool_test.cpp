// ThreadPool unit tests: full range coverage, serial fallback, nested-call
// inlining, exception propagation, and the global pool's sizing knobs.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace quickdrop {
namespace {

TEST(ThreadPoolTest, RejectsNonPositiveSize) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(ThreadPool(-3), std::invalid_argument);
}

TEST(ThreadPoolTest, RunChunksInvokesEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(17);
  pool.run_chunks(17, [&](int i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  // Odd range and grain so chunk boundaries don't line up with anything.
  constexpr std::int64_t kBegin = 3, kEnd = 1003, kGrain = 37;
  std::vector<std::atomic<int>> hits(kEnd);
  std::atomic<int> chunks{0};
  pool.parallel_for(kBegin, kEnd, kGrain, [&](std::int64_t b, std::int64_t e) {
    chunks.fetch_add(1);
    ASSERT_LT(b, e);
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kBegin; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 0);
  for (std::int64_t i = kBegin; i < kEnd; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
  }
  EXPECT_LE(chunks.load(), pool.threads());
}

TEST(ThreadPoolTest, ParallelForRespectsGrain) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  std::mutex mu;
  std::int64_t min_chunk = 1 << 30;
  pool.parallel_for(0, 100, 40, [&](std::int64_t b, std::int64_t e) {
    chunks.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    min_chunk = std::min(min_chunk, e - b);
  });
  // ceil(100 / 40) = 3 chunks at most; every chunk >= ~range/chunks items.
  EXPECT_LE(chunks.load(), 3);
  EXPECT_GE(min_chunk, 33);

  // A grain below 1 counts as 1: one item is one inline call on the caller,
  // four items are at most four one-item chunks.
  const auto caller = std::this_thread::get_id();
  int inline_calls = 0;
  pool.parallel_for(7, 8, 0, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(e - b, 1);
    ++inline_calls;
  });
  EXPECT_EQ(inline_calls, 1);
  std::atomic<std::int64_t> covered{0};
  chunks = 0;
  pool.parallel_for(0, 4, -3, [&](std::int64_t b, std::int64_t e) {
    chunks.fetch_add(1);
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 4);
  EXPECT_LE(chunks.load(), 4);
}

TEST(ThreadPoolTest, EmptyRangeInvokesNothing) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  pool.run_chunks(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<int> order;
  pool.run_chunks(5, [&](int i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, NestedCallsRunInline) {
  // Work submitted from inside a pool worker must not fan out again —
  // otherwise kernel parallel_for inside a parallel client would deadlock on
  // a saturated pool.
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  pool.run_chunks(3, [&](int) {
    const auto worker = std::this_thread::get_id();
    pool.parallel_for(0, 100, 1, [&](std::int64_t b, std::int64_t e) {
      EXPECT_EQ(std::this_thread::get_id(), worker);
      inner_total.fetch_add(static_cast<int>(e - b));
    });
  });
  EXPECT_EQ(inner_total.load(), 300);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunks(8,
                               [&](int i) {
                                 if (i == 5) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
  // Pool still usable after a failed group.
  std::atomic<int> ok{0};
  pool.run_chunks(4, [&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPoolTest, UsesMultipleThreadsWhenAvailable) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::atomic<int> arrived{0};
  pool.run_chunks(4, [&](int) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    }
    arrived.fetch_add(1);
    // Spin briefly so chunks overlap and can't all be claimed by one thread.
    const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    while (arrived.load() < 4 && std::chrono::steady_clock::now() < until) {
    }
  });
  EXPECT_GT(ids.size(), 1u);
}

TEST(ThreadPoolTest, GlobalPoolResizes) {
  const int before = num_threads();
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  EXPECT_EQ(ThreadPool::global().threads(), 3);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(before);
}

TEST(ThreadPoolTest, GlobalPoolIsSharedByConcurrentCallers) {
  // Callers on several threads must all see the one global pool and fan out
  // through it at once.
  const int before = num_threads();
  set_num_threads(3);
  ThreadPool* const published = &ThreadPool::global();
  constexpr int kCallers = 4;
  constexpr std::int64_t kItems = 5000;
  std::vector<std::atomic<std::int64_t>> totals(kCallers);
  std::vector<ThreadPool*> seen(kCallers, nullptr);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < 50; ++rep) {
        ThreadPool& pool = ThreadPool::global();
        seen[static_cast<std::size_t>(c)] = &pool;
        pool.parallel_for(0, kItems, 64, [&](std::int64_t b, std::int64_t e) {
          totals[static_cast<std::size_t>(c)].fetch_add(e - b);
        });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(seen[static_cast<std::size_t>(c)], published);
    EXPECT_EQ(totals[static_cast<std::size_t>(c)].load(), 50 * kItems);
  }
  set_num_threads(before);
}

TEST(ThreadPoolTest, GrainForScalesInverselyWithCost) {
  EXPECT_GE(grain_for(1), grain_for(100));
  EXPECT_GE(grain_for(1 << 20), 1);  // never zero
  EXPECT_GE(grain_for(0), 1);
  EXPECT_EQ(grain_for(1), 16384);
}

}  // namespace
}  // namespace quickdrop
