// The parallel walk engine's determinism contract (DESIGN.md §13): walk
// outputs are bitwise identical at every exec thread count and chunk size,
// and the counter-based RNG streams unify walker trajectories across the
// simulated and dist engines and across machine counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "graph/generators.hpp"
#include "partition/chunk.hpp"
#include "partition/registry.hpp"
#include "walk/apps.hpp"
#include "walk/dist_walk.hpp"
#include "walk/ppr_estimate.hpp"
#include "util/rng.hpp"
#include "walk/walk_engine.hpp"

namespace bpart::walk {
namespace {

class ParallelWalk : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph::WattsStrogatzConfig cfg;
    cfg.num_vertices = 2048;
    cfg.k = 6;
    cfg.beta = 0.2;
    cfg.seed = 7;
    graph_ = new graph::Graph(
        graph::Graph::from_edges(graph::watts_strogatz(cfg)));
    parts_ = new partition::Partition(
        partition::create("bpart")->partition(*graph_, 4));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete parts_;
    graph_ = nullptr;
    parts_ = nullptr;
  }

  static graph::Graph* graph_;
  static partition::Partition* parts_;
};

graph::Graph* ParallelWalk::graph_ = nullptr;
partition::Partition* ParallelWalk::parts_ = nullptr;

void expect_identical(const WalkReport& got, const WalkReport& base,
                      unsigned threads) {
  EXPECT_EQ(got.total_steps, base.total_steps) << threads << " threads";
  EXPECT_EQ(got.message_walks, base.message_walks) << threads << " threads";
  EXPECT_EQ(got.visits, base.visits) << threads << " threads";
  EXPECT_EQ(got.paths, base.paths) << threads << " threads";
  // The BSP accounting replays identically too.
  ASSERT_EQ(got.run.iterations.size(), base.run.iterations.size());
  EXPECT_EQ(got.run.total_work(), base.run.total_work());
  EXPECT_EQ(got.run.total_messages(), base.run.total_messages());
}

TEST_F(ParallelWalk, PprBitIdenticalAcrossThreadCounts) {
  WalkConfig cfg;
  cfg.exec.threads = 1;
  const auto base =
      run_walks(*graph_, *parts_, PersonalizedPageRank(0.1), cfg);
  for (const unsigned threads : {2u, 4u, 8u}) {
    cfg.exec.threads = threads;
    const auto got =
        run_walks(*graph_, *parts_, PersonalizedPageRank(0.1), cfg);
    expect_identical(got, base, threads);
  }
}

TEST_F(ParallelWalk, Node2VecPathsBitIdenticalAcrossThreadCounts) {
  // node2vec is the hardest case: second-order state plus a
  // variable-length rejection loop (up to 129 draws per step) — the keyed
  // streams must absorb all of it. record_paths makes the check per-step.
  WalkConfig cfg;
  cfg.record_paths = true;
  cfg.exec.threads = 1;
  const Node2Vec app(2.0, 0.5, 10);
  const auto base = run_walks(*graph_, *parts_, app, cfg);
  for (const unsigned threads : {2u, 8u}) {
    cfg.exec.threads = threads;
    const auto got = run_walks(*graph_, *parts_, app, cfg);
    expect_identical(got, base, threads);
  }
}

TEST_F(ParallelWalk, ChunkSizeDoesNotChangeOutputs) {
  WalkConfig cfg;
  cfg.exec.threads = 2;
  const auto base = run_walks(*graph_, *parts_, DeepWalk(10), cfg);
  for (const std::uint32_t chunk : {64u, 1000u, 1u << 20}) {
    cfg.exec.chunk_edges = chunk;
    const auto got = run_walks(*graph_, *parts_, DeepWalk(10), cfg);
    expect_identical(got, base, chunk);
  }
}

TEST_F(ParallelWalk, EnvRoutesToExecPath) {
  WalkConfig cfg;
  cfg.exec.threads = 2;
  const auto explicit_cfg =
      run_walks(*graph_, *parts_, PersonalizedPageRank(0.1), cfg);

  const char* saved = std::getenv("BPART_EXEC_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ASSERT_EQ(setenv("BPART_EXEC_THREADS", "2", 1), 0);
  const auto via_env =
      run_walks(*graph_, *parts_, PersonalizedPageRank(0.1), WalkConfig{});
  if (saved != nullptr) {
    ASSERT_EQ(setenv("BPART_EXEC_THREADS", saved_value.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("BPART_EXEC_THREADS"), 0);
  }

  expect_identical(via_env, explicit_cfg, 2);
}

TEST_F(ParallelWalk, KeyedStreamsUnifySimulatedAndDistEngines) {
  // The same (seed, walker, step) keys drive the simulated engine and the
  // dist engine: identical step AND message-walk totals, not just
  // statistics.
  ThreadedWalkConfig dcfg;
  dcfg.length = 8;
  dcfg.walks_per_vertex = 2;
  dcfg.seed = 21;
  const auto dist = run_simple_walks_dist(*graph_, *parts_, dcfg);

  WalkConfig cfg;
  cfg.walks_per_vertex = 2;
  cfg.seed = 21;
  cfg.exec.threads = 2;
  const auto sim = run_walks(*graph_, *parts_, SimpleRandomWalk(8), cfg);

  EXPECT_EQ(sim.total_steps, dist.total_steps);
  EXPECT_EQ(sim.message_walks, dist.message_walks);
}

TEST_F(ParallelWalk, DistStepsIndependentOfMachineCount) {
  // Seed-routing regression: per-machine RNG streams would make walker
  // trajectories depend on which machine hosted them, so step totals would
  // move with the partition count. Counter streams make the trajectory a
  // pure function of (seed, walker, step): only the crossing counts may
  // differ.
  ThreadedWalkConfig cfg;
  cfg.length = 8;
  cfg.seed = 13;
  std::uint64_t base_steps = 0;
  for (const unsigned k : {1u, 2u, 5u}) {
    const auto r = run_simple_walks_dist(
        *graph_, partition::ChunkV().partition(*graph_, k), cfg);
    if (k == 1) {
      base_steps = r.total_steps;
    } else {
      EXPECT_EQ(r.total_steps, base_steps) << k << " machines";
    }
  }
}

TEST_F(ParallelWalk, PprEstimateDeterministicAcrossThreads) {
  PprConfig cfg;
  cfg.num_walks = 4000;
  cfg.exec.threads = 1;
  const auto base = estimate_ppr(*graph_, *parts_, /*source=*/5, cfg);
  cfg.exec.threads = 4;
  const auto got = estimate_ppr(*graph_, *parts_, 5, cfg);
  EXPECT_EQ(got.total_visits, base.total_visits);
  ASSERT_EQ(got.top.size(), base.top.size());
  for (std::size_t i = 0; i < got.top.size(); ++i) {
    EXPECT_EQ(got.top[i].vertex, base.top[i].vertex);
    EXPECT_DOUBLE_EQ(got.top[i].score, base.top[i].score);
  }
}

TEST(StepRngBatch, WithFirstDrawReplaysTheKeyedStream) {
  // The SIMD-batched hot loop hands each walker step a pre-computed stream
  // head via with_first_draw; the resulting draw sequence must be the exact
  // sequence the three-argument (seed, walker, step) constructor produces,
  // including the rare multi-draw steps that run past the head.
  constexpr std::size_t kBatch = 4;
  std::uint64_t draw[kBatch];
  std::uint64_t state[kBatch];
  CounterRng::first_draws(123, 5, 77, kBatch, draw, state);
  for (std::size_t j = 0; j < kBatch; ++j) {
    StepRng batched = StepRng::with_first_draw(draw[j], state[j]);
    StepRng keyed(123, 5, 77 + j);
    for (int i = 0; i < 32; ++i)
      ASSERT_EQ(batched.next(), keyed.next()) << "slot " << j << " draw " << i;
  }
}

}  // namespace
}  // namespace bpart::walk
