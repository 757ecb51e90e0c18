#include "walk/dist_walk.hpp"

#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "partition/registry.hpp"

namespace bpart::walk {
namespace {

// Directed cycle: every vertex has out-degree 1, so walks never dead-end
// and step totals are exact.
graph::Graph cycle_graph(graph::VertexId n) {
  graph::EdgeList edges(n);
  edges.reserve(n);
  for (graph::VertexId v = 0; v < n; ++v) edges.add(v, (v + 1) % n);
  return graph::Graph::from_edges(edges);
}

TEST(DistWalk, StepConservationOnCycle) {
  constexpr graph::VertexId kN = 1000;
  const graph::Graph g = cycle_graph(kN);
  const partition::Partition parts =
      partition::create("chunk-v")->partition(g, 4);

  ThreadedWalkConfig cfg;
  cfg.length = 12;
  cfg.walks_per_vertex = 3;
  const DistWalkReport r = run_simple_walks_dist(g, parts, cfg);

  // No dead ends: every walker takes exactly `length` steps.
  EXPECT_EQ(r.total_steps,
            static_cast<std::uint64_t>(kN) * cfg.walks_per_vertex * cfg.length);
  // Contiguous 250-vertex blocks, 12-step walks: every walker starting near
  // a block boundary ships at least once.
  EXPECT_GT(r.message_walks, 0u);
  EXPECT_GT(r.supersteps, 1u);

  // The measured report counts exactly the shipped walkers as messages.
  std::uint64_t msgs = 0;
  for (const auto& it : r.run.iterations)
    for (const auto& m : it.machines) msgs += m.messages_sent;
  EXPECT_EQ(msgs, r.message_walks);
  EXPECT_EQ(r.run.num_machines, 4u);
  EXPECT_EQ(r.run.iterations.size(), r.supersteps);
}

TEST(DistWalk, SinglePartitionNeverShips) {
  const graph::Graph g = cycle_graph(128);
  const partition::Partition parts =
      partition::create("chunk-v")->partition(g, 1);
  ThreadedWalkConfig cfg;
  cfg.length = 5;
  const DistWalkReport r = run_simple_walks_dist(g, parts, cfg);
  EXPECT_EQ(r.total_steps, 128u * 5u);
  EXPECT_EQ(r.message_walks, 0u);
  EXPECT_EQ(r.supersteps, 1u);  // all walks complete in the first superstep
}

TEST(DistWalk, LocalPartitionShipsFewerWalkersThanHash) {
  graph::WattsStrogatzConfig wcfg;
  wcfg.num_vertices = 1024;
  wcfg.k = 4;
  wcfg.beta = 0.2;
  wcfg.seed = 3;
  const graph::Graph g = graph::Graph::from_edges(graph::watts_strogatz(wcfg));
  ThreadedWalkConfig cfg;
  cfg.length = 8;
  const DistWalkReport chunk = run_simple_walks_dist(
      g, partition::create("chunk-v")->partition(g, 4), cfg);
  const DistWalkReport hash = run_simple_walks_dist(
      g, partition::create("hash")->partition(g, 4), cfg);
  EXPECT_EQ(chunk.total_steps, hash.total_steps);
  EXPECT_LT(chunk.message_walks, hash.message_walks);
}

TEST(DistWalk, DeadEndsTerminateEarly) {
  graph::EdgeList el;
  el.add(0, 1);
  el.add(1, 2);  // 2 is a sink
  const graph::Graph g = graph::Graph::from_edges(el);
  partition::Partition parts(3, 2);
  parts.assign(0, 0);
  parts.assign(1, 1);
  parts.assign(2, 0);
  ThreadedWalkConfig cfg;
  cfg.length = 10;
  const DistWalkReport r = run_simple_walks_dist(g, parts, cfg);
  // Walker@0: 2 steps; walker@1: 1 step; walker@2: 0.
  EXPECT_EQ(r.total_steps, 3u);
  EXPECT_EQ(r.message_walks, 3u);  // 0->1, then 1->2 for walkers @0 and @1
}

TEST(DistWalk, ExecPathMatchesSequentialDrain) {
  // A branching graph so every step actually draws. Counter streams plus
  // chunk-order channel flushes make every exec thread count reproduce the
  // default one-worker (sequential) drain exactly.
  graph::WattsStrogatzConfig wcfg;
  wcfg.num_vertices = 512;
  wcfg.k = 4;
  wcfg.beta = 0.2;
  wcfg.seed = 5;
  const graph::Graph g = graph::Graph::from_edges(graph::watts_strogatz(wcfg));
  const partition::Partition parts =
      partition::create("chunk-v")->partition(g, 4);
  ThreadedWalkConfig cfg;
  cfg.length = 10;
  cfg.walks_per_vertex = 2;
  const DistWalkReport base = run_simple_walks_dist(g, parts, cfg);
  for (const unsigned threads : {1u, 2u, 4u}) {
    cfg.exec.threads = threads;
    const DistWalkReport got = run_simple_walks_dist(g, parts, cfg);
    EXPECT_EQ(got.total_steps, base.total_steps) << threads << " threads";
    EXPECT_EQ(got.message_walks, base.message_walks) << threads << " threads";
    EXPECT_EQ(got.supersteps, base.supersteps) << threads << " threads";
  }
}

}  // namespace
}  // namespace bpart::walk
