#include "dist/runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

namespace bpart::dist {
namespace {

using Msg = std::uint64_t;

TEST(DistRuntime, HaltsOnQuiescence) {
  std::atomic<int> calls{0};
  RuntimeConfig cfg;
  const RunResult r =
      Runtime<Msg>::run(4, cfg, [&](Runtime<Msg>::Context&, std::size_t) {
        ++calls;
        return Vote::kHalt;
      });
  EXPECT_EQ(r.supersteps, 1u);
  EXPECT_EQ(calls.load(), 4);
}

TEST(DistRuntime, StopsAtMaxSupersteps) {
  RuntimeConfig cfg;
  cfg.max_supersteps = 6;
  const RunResult r = Runtime<Msg>::run(
      2, cfg, [](Runtime<Msg>::Context&, std::size_t) { return Vote::kContinue; });
  EXPECT_EQ(r.supersteps, 6u);
  EXPECT_EQ(r.report.iterations.size(), 6u);
}

TEST(DistRuntime, TokenRingAndMeasuredReport) {
  constexpr MachineId kMachines = 5;
  constexpr std::uint64_t kTarget = 12;
  std::atomic<std::uint64_t> final_token{0};
  RuntimeConfig cfg;
  const RunResult r = Runtime<Msg>::run(
      kMachines, cfg, [&](Runtime<Msg>::Context& ctx, std::size_t s) {
        if (s == 0 && ctx.self() == 0) ctx.send(1, 1);
        ctx.for_each_message([&](Msg token) {
          ++token;
          ctx.add_work(1);
          if (token >= kTarget)
            final_token.store(token);
          else
            ctx.send((ctx.self() + 1) % kMachines, token);
        });
        return Vote::kHalt;  // in-flight token keeps the run alive
      });
  EXPECT_EQ(final_token.load(), kTarget);
  EXPECT_EQ(r.supersteps, kTarget);  // one hop per superstep + final drain

  // Report shape: one row per superstep, one entry per machine, measured
  // fields populated and byte counts consistent with the message size.
  EXPECT_EQ(r.report.num_machines, kMachines);
  ASSERT_EQ(r.report.iterations.size(), r.supersteps);
  std::uint64_t msgs = 0;
  for (const auto& it : r.report.iterations) {
    ASSERT_EQ(it.machines.size(), kMachines);
    for (const auto& m : it.machines) {
      EXPECT_GE(m.compute_seconds, 0.0);
      EXPECT_GE(m.wait_seconds, 0.0);
      EXPECT_EQ(m.bytes_sent, m.messages_sent * sizeof(Msg));
      EXPECT_EQ(m.bytes_received, m.messages_received * sizeof(Msg));
      msgs += m.messages_sent;
    }
  }
  // The token ships once per increment except the last (stored locally).
  EXPECT_EQ(msgs, kTarget - 1);
  EXPECT_EQ(r.report.total_bytes_sent(), msgs * sizeof(Msg));
  EXPECT_EQ(r.report.compute_seconds_per_machine().size(), kMachines);
}

TEST(DistRuntime, MessagesArriveNextSuperstep) {
  // Machine 0 sends its superstep number to machine 1; machine 1 must read
  // exactly s-1 at superstep s, and nothing at superstep 0.
  constexpr std::size_t kSteps = 4;
  std::atomic<bool> ok{true};
  RuntimeConfig cfg;
  cfg.max_supersteps = kSteps;
  const RunResult r = Runtime<Msg>::run(
      2, cfg, [&](Runtime<Msg>::Context& ctx, std::size_t s) {
        if (ctx.self() == 0) {
          ctx.send(1, s);
        } else {
          std::vector<Msg> got;
          ctx.for_each_message([&](Msg m) { got.push_back(m); });
          if (s == 0 ? !got.empty() : got != std::vector<Msg>{s - 1})
            ok = false;
        }
        return Vote::kContinue;
      });
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(r.supersteps, kSteps);
}

TEST(DistRuntime, SingleMachineSelfMessagesKeepRunAlive) {
  int calls = 0;
  RuntimeConfig cfg;
  const RunResult r = Runtime<Msg>::run(
      1, cfg, [&](Runtime<Msg>::Context& ctx, std::size_t s) {
        ++calls;
        if (s < 2) ctx.send(0, s);
        return Vote::kHalt;
      });
  EXPECT_EQ(r.supersteps, 3u);  // 0 sends, 1 delivers+sends, 2 delivers
  EXPECT_EQ(calls, 3);
}

TEST(DistRuntime, SelfSendsAreNotNetworkTraffic) {
  RuntimeConfig cfg;
  const RunResult r = Runtime<Msg>::run(
      2, cfg, [&](Runtime<Msg>::Context& ctx, std::size_t s) {
        if (s == 0) ctx.send(ctx.self(), 1);  // local delivery
        return Vote::kHalt;
      });
  EXPECT_EQ(r.supersteps, 2u);  // still delivered next superstep
  for (const auto& it : r.report.iterations)
    for (const auto& m : it.machines) EXPECT_EQ(m.messages_sent, 0u);
}

TEST(DistRuntime, MarkCommSplitsComputeAndComm) {
  RuntimeConfig cfg;
  const RunResult r = Runtime<Msg>::run(
      1, cfg, [&](Runtime<Msg>::Context& ctx, std::size_t) {
        ctx.add_work(10);
        ctx.mark_comm();
        return Vote::kHalt;
      });
  const auto& m = r.report.iterations.at(0).machines.at(0);
  EXPECT_EQ(m.work_items, 10u);
  EXPECT_GE(m.compute_seconds, 0.0);
  EXPECT_GE(m.comm_seconds, 0.0);
}

TEST(DistRuntime, OnBarrierRunsOncePerSuperstep) {
  std::vector<std::size_t> seen;
  RuntimeConfig cfg;
  cfg.max_supersteps = 4;
  cfg.on_barrier = [&](std::size_t done) { seen.push_back(done); };
  Runtime<Msg>::run(3, cfg, [](Runtime<Msg>::Context&, std::size_t) {
    return Vote::kContinue;
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(DistRuntime, ThreadsOverrideMultiplexesMachines) {
  // 8 machines on 2 explicit worker threads: identical semantics.
  constexpr MachineId kMachines = 8;
  RuntimeConfig cfg;
  cfg.threads = 2;
  std::atomic<std::uint64_t> delivered{0};
  const RunResult r = Runtime<Msg>::run(
      kMachines, cfg, [&](Runtime<Msg>::Context& ctx, std::size_t s) {
        if (s == 0) ctx.send((ctx.self() + 1) % kMachines, ctx.self());
        ctx.for_each_message([&](Msg v) { delivered += v; });
        return Vote::kHalt;
      });
  EXPECT_EQ(r.supersteps, 2u);
  EXPECT_EQ(delivered.load(), kMachines * (kMachines - 1) / 2);
}

TEST(DistRuntime, HonorsBpartThreadsEnv) {
  ASSERT_EQ(setenv("BPART_THREADS", "3", 1), 0);
  std::atomic<std::uint64_t> delivered{0};
  constexpr MachineId kMachines = 7;
  RuntimeConfig cfg;
  const RunResult r = Runtime<Msg>::run(
      kMachines, cfg, [&](Runtime<Msg>::Context& ctx, std::size_t s) {
        if (s == 0) ctx.send((ctx.self() + 1) % kMachines, 1);
        ctx.for_each_message([&](Msg v) { delivered += v; });
        return Vote::kHalt;
      });
  ASSERT_EQ(unsetenv("BPART_THREADS"), 0);
  EXPECT_EQ(r.supersteps, 2u);
  EXPECT_EQ(delivered.load(), kMachines);
}

TEST(FrontierMode, TwentyToOneSwitch) {
  EXPECT_EQ(choose_frontier_mode(0, 1000), FrontierMode::kSparse);
  EXPECT_EQ(choose_frontier_mode(50, 1000), FrontierMode::kSparse);
  EXPECT_EQ(choose_frontier_mode(51, 1000), FrontierMode::kDense);
  EXPECT_EQ(choose_frontier_mode(1000, 1000), FrontierMode::kDense);
}

}  // namespace
}  // namespace bpart::dist
