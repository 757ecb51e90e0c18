// The exec core's headline contract (DESIGN.md §10): results are
// bit-identical across thread counts. PageRank's pull-mode gather gives
// bit-identical ranks; CC matches the one-worker (sequential) run
// bit-for-bit, run report included; SSSP distances, supersteps and
// accounting are identical for every thread count.
#include <gtest/gtest.h>

#include <cstdlib>

#include "engine/components.hpp"
#include "engine/pagerank.hpp"
#include "engine/sssp.hpp"
#include "graph/generators.hpp"
#include "partition/registry.hpp"

namespace bpart::engine {
namespace {

class ExecDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph::RmatConfig rm;
    rm.scale = 10;
    rm.edge_factor = 8;
    graph_ = new graph::Graph(
        graph::Graph::from_edges_symmetric(graph::rmat(rm)));
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

graph::Graph* ExecDeterminism::graph_ = nullptr;
partition::Partition* ExecDeterminism::parts_ = nullptr;

TEST_F(ExecDeterminism, PageRankBitIdenticalAcrossThreadCounts) {
  PageRankConfig cfg;
  cfg.exec.threads = 1;
  const auto base = pagerank(*graph_, *parts_, cfg);
  for (const unsigned threads : {2u, 8u}) {
    cfg.exec.threads = threads;
    const auto got = pagerank(*graph_, *parts_, cfg);
    EXPECT_EQ(got.rank, base.rank) << threads << " threads";
  }
}

TEST_F(ExecDeterminism, PageRankThreadsDoNotChangeRanksAtAnyChunkSize) {
  // The determinism contract is keyed on (graph, chunk_edges): chunk
  // boundaries — and hence the dangling-mass fold order — never depend on
  // the worker count. Verify at a non-default chunk size too.
  PageRankConfig cfg;
  cfg.exec.chunk_edges = 256;
  cfg.exec.threads = 1;
  const auto base = pagerank(*graph_, *parts_, cfg);
  for (const unsigned threads : {3u, 8u}) {
    cfg.exec.threads = threads;
    const auto got = pagerank(*graph_, *parts_, cfg);
    EXPECT_EQ(got.rank, base.rank) << threads << " threads";
  }
}

TEST_F(ExecDeterminism, PageRankEnvRoutesToExecPath) {
  PageRankConfig cfg;
  cfg.exec.threads = 2;
  const auto explicit_cfg = pagerank(*graph_, *parts_, cfg);

  ASSERT_EQ(setenv("BPART_EXEC_THREADS", "2", 1), 0);
  const auto via_env = pagerank(*graph_, *parts_, PageRankConfig{});
  ASSERT_EQ(unsetenv("BPART_EXEC_THREADS"), 0);

  EXPECT_EQ(via_env.rank, explicit_cfg.rank);
}

TEST_F(ExecDeterminism, ComponentsBitIdenticalToSequentialEngine) {
  exec::ExecConfig one;
  one.threads = 1;
  const auto base = connected_components(*graph_, *parts_, {}, 200, one);
  for (const unsigned threads : {2u, 3u, 8u}) {
    exec::ExecConfig ec;
    ec.threads = threads;
    const auto got = connected_components(*graph_, *parts_, {}, 200, ec);
    EXPECT_EQ(got.label, base.label) << threads << " threads";
    EXPECT_EQ(got.num_components, base.num_components);
    // The accounting replays identically: same supersteps, same totals.
    ASSERT_EQ(got.run.iterations.size(), base.run.iterations.size());
    EXPECT_EQ(got.run.total_work(), base.run.total_work());
    EXPECT_EQ(got.run.total_messages(), base.run.total_messages());
  }
}

TEST_F(ExecDeterminism, SsspDistancesIdenticalAcrossThreadCounts) {
  SsspConfig cfg;
  cfg.exec.threads = 1;
  const auto one = sssp(*graph_, *parts_, /*source=*/0, cfg);
  for (const unsigned threads : {2u, 8u}) {
    cfg.exec.threads = threads;
    const auto got = sssp(*graph_, *parts_, 0, cfg);
    EXPECT_EQ(got.distance, one.distance) << threads << " threads";
    EXPECT_EQ(got.run.iterations.size(), one.run.iterations.size());
    EXPECT_EQ(got.run.total_work(), one.run.total_work());
    EXPECT_EQ(got.run.total_messages(), one.run.total_messages());
  }
}

}  // namespace
}  // namespace bpart::engine
