#include "walk/weighted_walk.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/chunk.hpp"
#include "util/check.hpp"

namespace bpart::walk {
namespace {

using graph::EdgeList;
using graph::Graph;

Graph lattice() {
  graph::WattsStrogatzConfig cfg;
  cfg.num_vertices = 512;
  cfg.k = 4;
  cfg.beta = 0.1;
  return Graph::from_edges(graph::watts_strogatz(cfg));
}

TEST(WeightedWalk, EdgeWeightsDeterministicAndInRange) {
  for (graph::VertexId v = 0; v < 100; ++v) {
    const double w = weighted_walk_edge_weight(v, v + 1, 7, 16);
    EXPECT_GE(w, 1.0);
    EXPECT_LE(w, 16.0);
    EXPECT_DOUBLE_EQ(w, weighted_walk_edge_weight(v, v + 1, 7, 16));
  }
}

TEST(WeightedWalk, TransitionProbabilitiesMatchWeights) {
  // Star: vertex 0 -> {1, 2, 3}; probabilities must equal weight shares.
  EdgeList el;
  el.add(0, 1);
  el.add(0, 2);
  el.add(0, 3);
  const Graph g = Graph::from_edges(el);
  WeightedWalkConfig cfg;
  const WeightedRandomWalk app(g, cfg);
  double total = 0;
  for (graph::EdgeId k = 0; k < 3; ++k)
    total += app.transition_probability(0, k);
  EXPECT_NEAR(total, 1.0, 1e-12);
  for (graph::EdgeId k = 0; k < 3; ++k) {
    const double w = weighted_walk_edge_weight(0, g.out_neighbor(0, k),
                                               cfg.weight_seed,
                                               cfg.max_weight);
    EXPECT_GT(app.transition_probability(0, k), 0.0);
    EXPECT_NEAR(app.transition_probability(0, k),
                w / (weighted_walk_edge_weight(0, 1, 7, 16) +
                     weighted_walk_edge_weight(0, 2, 7, 16) +
                     weighted_walk_edge_weight(0, 3, 7, 16)),
                1e-12);
  }
}

TEST(WeightedWalk, EmpiricalFrequenciesFollowWeights) {
  EdgeList el;
  el.add(0, 1);
  el.add(0, 2);
  const Graph g = Graph::from_edges(el);
  const WeightedRandomWalk app(g, {.length = 1, .exec = {}});
  const double p1 = app.transition_probability(0, 0);

  int first = 0;
  constexpr int kN = 100000;
  WalkerState state;
  state.current = 0;
  for (int i = 0; i < kN; ++i) {
    StepRng rng(3, i, 0);
    const StepDecision d = app.step(state, g, rng);
    if (d.next == 1) ++first;
  }
  EXPECT_NEAR(static_cast<double>(first) / kN, p1, 0.01);
}

TEST(WeightedWalk, FixedLengthOnLattice) {
  const Graph g = lattice();
  const WeightedRandomWalk app(g, {.length = 6, .exec = {}});
  const auto report =
      run_walks(g, partition::ChunkV().partition(g, 4), app, {});
  EXPECT_EQ(report.total_steps,
            static_cast<std::uint64_t>(g.num_vertices()) * 6u);
}

TEST(WeightedWalk, DeadEndsStopWalkers) {
  EdgeList el;
  el.add(0, 1);  // 1 is a sink
  const Graph g = Graph::from_edges(el);
  const WeightedRandomWalk app(g, {.length = 10, .exec = {}});
  const auto report =
      run_walks(g, partition::ChunkV().partition(g, 1), app, {});
  EXPECT_EQ(report.total_steps, 1u);
}

TEST(WeightedWalk, GuardsAgainstWrongGraph) {
  const Graph small = Graph::from_edges([] {
    EdgeList el;
    el.add_undirected(0, 1);
    return el;
  }());
  const Graph big = lattice();
  const WeightedRandomWalk app(small, {});
  WalkerState state;
  state.current = 100;  // beyond `small`'s tables
  StepRng rng(1, 0, 0);
  EXPECT_THROW((void)app.step(state, big, rng), CheckError);
}

}  // namespace
}  // namespace bpart::walk
