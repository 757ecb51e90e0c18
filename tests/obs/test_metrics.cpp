#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace bpart::obs {
namespace {

TEST(Counter, SingleThreadAddAndReset) {
  Counter c("test.counter.single");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, AggregatesAcrossThreads) {
  Counter c("test.counter.mt");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(LatencyHistogram, CountSumMaxAndBuckets) {
  LatencyHistogram h("test.latency");
  h.record_ns(0);
  h.record_ns(1);
  h.record_ns(1000);
  h.record_ns(1023);
  h.record_ns(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum_ns(), 0u + 1 + 1000 + 1023 + 1024);
  EXPECT_EQ(h.max_ns(), 1024u);

  const LogHistogram lh = h.to_log_histogram();
  EXPECT_EQ(lh.total(), 5u);
  // LogHistogram bucket i = [2^i, 2^(i+1)); bucket 0 additionally holds 0.
  EXPECT_EQ(lh.bucket_count(0), 2u);   // the 0 and the 1
  EXPECT_EQ(lh.bucket_count(9), 2u);   // 1000, 1023 in [512, 1024)
  EXPECT_EQ(lh.bucket_count(10), 1u);  // 1024 in [1024, 2048)
}

TEST(LatencyHistogram, RecordSecondsClampsNegative) {
  LatencyHistogram h("test.latency.neg");
  h.record_seconds(-1.0);
  h.record_seconds(1e-6);  // 1000 ns
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max_ns(), 1000u);
}

TEST(LatencyHistogram, ConcurrentRecordersAreConsistent) {
  LatencyHistogram h("test.latency.mt");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.record_ns((t + 1) * 100);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.max_ns(), kThreads * 100u);
  std::uint64_t expected_sum = 0;
  for (unsigned t = 0; t < kThreads; ++t)
    expected_sum += (t + 1) * 100ull * kPerThread;
  EXPECT_EQ(h.sum_ns(), expected_sum);
}

TEST(Registry, FindOrCreateReturnsSameHandle) {
  Counter& a = counter("test.registry.counter");
  Counter& b = counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  LatencyHistogram& l1 = latency("test.registry.latency");
  LatencyHistogram& l2 = latency("test.registry.latency");
  EXPECT_EQ(&l1, &l2);
}

TEST(Registry, ConcurrentLookupsOfSameName) {
  constexpr unsigned kThreads = 8;
  std::vector<Counter*> handles(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([&handles, t] {
      Counter& c = counter("test.registry.race");
      c.add();
      handles[t] = &c;
    });
  for (auto& t : threads) t.join();
  for (unsigned t = 1; t < kThreads; ++t) EXPECT_EQ(handles[t], handles[0]);
  EXPECT_EQ(handles[0]->value(), kThreads);
}

TEST(Snapshot, ContainsRegisteredMetricsWithQuantiles) {
  metrics_reset();
  counter("test.snapshot.counter").add(7);
  LatencyHistogram& lat = latency("test.snapshot.latency");
  for (int i = 0; i < 100; ++i) lat.record_ns(1000);

  const MetricsSnapshot snap = metrics_snapshot();
  bool found_counter = false;
  for (const auto& c : snap.counters)
    if (c.name == "test.snapshot.counter") {
      found_counter = true;
      EXPECT_EQ(c.value, 7u);
    }
  EXPECT_TRUE(found_counter);

  bool found_latency = false;
  for (const auto& l : snap.latencies)
    if (l.name == "test.snapshot.latency") {
      found_latency = true;
      EXPECT_EQ(l.count, 100u);
      EXPECT_EQ(l.sum_ns, 100000u);
      // All samples fall in [512, 1024), so every quantile does too.
      EXPECT_GE(l.p50_ns, 512.0);
      EXPECT_LE(l.p50_ns, 1024.0);
      EXPECT_GE(l.p99_ns, l.p50_ns);
    }
  EXPECT_TRUE(found_latency);

  // Snapshot names arrive sorted for deterministic reports.
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
}

TEST(Snapshot, ResetZeroesButKeepsHandles) {
  Counter& c = counter("test.reset.counter");
  c.add(5);
  metrics_reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(2);  // handle still valid after reset
  EXPECT_EQ(c.value(), 2u);
}

TEST(ScopedLatency, RecordsOneSampleOnScopeExit) {
  LatencyHistogram& lat = latency("test.scoped.latency");
  const std::uint64_t before = lat.count();
  { ScopedLatency sample(lat); }
  EXPECT_EQ(lat.count(), before + 1);
}

}  // namespace
}  // namespace bpart::obs
