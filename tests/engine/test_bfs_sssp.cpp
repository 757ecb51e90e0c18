#include <gtest/gtest.h>

#include "engine/sssp.hpp"
#include "graph/generators.hpp"
#include "partition/chunk.hpp"
#include "partition/hash_partitioner.hpp"

namespace bpart::engine {
namespace {

using graph::EdgeList;
using graph::Graph;

Graph path_of(graph::VertexId n) {
  EdgeList el;
  for (graph::VertexId v = 0; v + 1 < n; ++v) el.add_undirected(v, v + 1);
  return Graph::from_edges(el);
}

TEST(Sssp, WeightsAreDeterministicAndInRange) {
  SsspConfig cfg;
  cfg.max_weight = 8;
  for (graph::VertexId u = 0; u < 50; ++u) {
    const auto w = sssp_edge_weight(u, u + 1, cfg);
    EXPECT_GE(w, 1u);
    EXPECT_LE(w, 8u);
    EXPECT_EQ(w, sssp_edge_weight(u, u + 1, cfg));
  }
}

TEST(Sssp, ReducesToBfsWithUnitWeights) {
  SsspConfig cfg;
  cfg.max_weight = 1;  // all weights 1
  const Graph g = path_of(12);
  const auto d = sssp(g, partition::ChunkV().partition(g, 2), 0, cfg);
  for (graph::VertexId v = 0; v < 12; ++v) EXPECT_EQ(d.distance[v], v);
}

TEST(Sssp, TriangleShortcut) {
  // 0-1 weight big vs 0-2-1 cheap: craft with unit weights by path length.
  SsspConfig cfg;
  cfg.max_weight = 1;
  EdgeList el;
  el.add_undirected(0, 1);
  el.add_undirected(0, 2);
  el.add_undirected(2, 1);
  const Graph g = Graph::from_edges(el);
  const auto d = sssp(g, partition::ChunkV().partition(g, 1), 0, cfg);
  EXPECT_EQ(d.distance[1], 1u);  // direct edge wins with unit weights
  EXPECT_EQ(d.distance[2], 1u);
}

TEST(Sssp, DistancesSatisfyTriangleInequalityOverEdges) {
  graph::RmatConfig cfg;
  cfg.scale = 9;
  const Graph g = Graph::from_edges_symmetric(graph::rmat(cfg));
  SsspConfig wcfg;
  const auto res = sssp(g, partition::ChunkV().partition(g, 4), 0, wcfg);
  // For every edge (u, v): d[v] <= d[u] + w(u, v) — i.e. relaxation
  // converged.
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    if (res.distance[u] == SsspResult::kUnreachable) continue;
    for (graph::VertexId v : g.out_neighbors(u)) {
      ASSERT_LE(res.distance[v],
                res.distance[u] + sssp_edge_weight(u, v, wcfg));
    }
  }
}

TEST(Sssp, ResultIndependentOfPartition) {
  graph::RmatConfig cfg;
  cfg.scale = 8;
  const Graph g = Graph::from_edges_symmetric(graph::rmat(cfg));
  const auto a = sssp(g, partition::ChunkV().partition(g, 2), 3);
  const auto b = sssp(g, partition::HashPartitioner().partition(g, 8), 3);
  for (graph::VertexId v = 0; v < g.num_vertices(); v += 13)
    EXPECT_EQ(a.distance[v], b.distance[v]);
}

}  // namespace
}  // namespace bpart::engine
