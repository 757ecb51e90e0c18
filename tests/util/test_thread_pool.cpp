#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/check.hpp"

namespace bpart {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 50; ++i)
    futs.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SingleWorkerIsSequentiallyConsistent) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) pool.submit([&order, i] { order.push_back(i); });
  pool.wait_idle();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), CheckError);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, 4, [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, 4, [&](std::uint64_t, std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleWorkerRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  parallel_for(0, 10, 1, [&](std::uint64_t, std::uint64_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ParallelFor, MoreWorkersThanItems) {
  std::atomic<std::uint64_t> total{0};
  parallel_for(0, 3, 16, [&](std::uint64_t lo, std::uint64_t hi) {
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), 3u);
}

TEST(ParallelFor, ChunksArePartition) {
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
  parallel_for(10, 110, 7, [&](std::uint64_t lo, std::uint64_t hi) {
    std::lock_guard<std::mutex> g(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  std::uint64_t expect = 10;
  for (auto [lo, hi] : chunks) {
    EXPECT_EQ(lo, expect);
    EXPECT_GT(hi, lo);
    expect = hi;
  }
  EXPECT_EQ(expect, 110u);
}

TEST(ParallelFor, PropagatesWorkerException) {
  // The throwing chunk must not terminate the process: every other chunk
  // still runs to completion, then the caller sees the exception.
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_for(0, 8, 4,
                            [&](std::uint64_t lo, std::uint64_t) {
                              if (lo == 0) throw std::runtime_error("boom");
                              ++finished;
                            }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);
}

}  // namespace
}  // namespace bpart
