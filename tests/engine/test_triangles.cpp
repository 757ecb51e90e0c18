#include "engine/triangles.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "partition/chunk.hpp"
#include "partition/hash_partitioner.hpp"
#include "util/check.hpp"

namespace bpart::engine {
namespace {

using graph::EdgeList;
using graph::Graph;

Graph complete(graph::VertexId n) {
  EdgeList el;
  for (graph::VertexId a = 0; a < n; ++a)
    for (graph::VertexId b = a + 1; b < n; ++b) el.add_undirected(a, b);
  return Graph::from_edges(el);
}

TEST(Triangles, SingleTriangle) {
  const Graph g = complete(3);
  const auto res = count_triangles(g, partition::ChunkV().partition(g, 1));
  EXPECT_EQ(res.total_triangles, 1u);
  EXPECT_EQ(res.per_vertex[0], 1u);
  EXPECT_EQ(res.per_vertex[1], 1u);
  EXPECT_EQ(res.per_vertex[2], 1u);
  EXPECT_DOUBLE_EQ(res.global_clustering, 1.0);
}

TEST(Triangles, CompleteGraphCount) {
  // K_n has C(n,3) triangles; each vertex touches C(n-1,2).
  const Graph g = complete(8);
  const auto res = count_triangles(g, partition::ChunkV().partition(g, 2));
  EXPECT_EQ(res.total_triangles, 56u);   // C(8,3)
  for (graph::VertexId v = 0; v < 8; ++v)
    EXPECT_EQ(res.per_vertex[v], 21u);   // C(7,2)
  EXPECT_DOUBLE_EQ(res.global_clustering, 1.0);
}

TEST(Triangles, TreeHasNone) {
  EdgeList el;
  for (graph::VertexId v = 1; v < 16; ++v) el.add_undirected(v / 2, v);
  const Graph g = Graph::from_edges(el);
  const auto res = count_triangles(g, partition::ChunkV().partition(g, 2));
  EXPECT_EQ(res.total_triangles, 0u);
  EXPECT_DOUBLE_EQ(res.global_clustering, 0.0);
}

TEST(Triangles, SquareWithDiagonal) {
  EdgeList el;
  el.add_undirected(0, 1);
  el.add_undirected(1, 2);
  el.add_undirected(2, 3);
  el.add_undirected(3, 0);
  el.add_undirected(0, 2);  // diagonal: two triangles
  const Graph g = Graph::from_edges(el);
  const auto res = count_triangles(g, partition::ChunkV().partition(g, 2));
  EXPECT_EQ(res.total_triangles, 2u);
  EXPECT_EQ(res.per_vertex[0], 2u);
  EXPECT_EQ(res.per_vertex[2], 2u);
  EXPECT_EQ(res.per_vertex[1], 1u);
  EXPECT_EQ(res.per_vertex[3], 1u);
}

TEST(Triangles, DirectedGraphIsRejected) {
  // The directed triangle 0 -> 1 -> 2 -> 0: no edge has its reverse.
  EdgeList el;
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 0);
  const Graph g = Graph::from_edges(el);
  EXPECT_THROW(count_triangles(g, partition::ChunkV().partition(g, 1)),
               CheckError);
}

TEST(Triangles, PerVertexSumsToThreeTimesTotal) {
  graph::CommunityGraphConfig cfg;
  cfg.num_vertices = 2048;
  cfg.avg_degree = 12;
  cfg.num_communities = 16;
  cfg.seed = 77;
  const Graph g =
      Graph::from_edges_symmetric(graph::community_scale_free(cfg));
  const auto res = count_triangles(g, partition::ChunkV().partition(g, 4));
  std::uint64_t sum = 0;
  for (auto c : res.per_vertex) sum += c;
  EXPECT_EQ(sum, 3 * res.total_triangles);
}

TEST(Triangles, ResultIndependentOfPartition) {
  graph::RmatConfig cfg;
  cfg.scale = 9;
  const Graph g = Graph::from_edges_symmetric(graph::rmat(cfg));
  const auto a = count_triangles(g, partition::ChunkV().partition(g, 2));
  const auto b =
      count_triangles(g, partition::HashPartitioner().partition(g, 8));
  EXPECT_EQ(a.total_triangles, b.total_triangles);
  EXPECT_EQ(a.per_vertex, b.per_vertex);
}

TEST(Triangles, CommunityGraphClustersMoreThanRandom) {
  // Community structure raises the clustering coefficient — one more check
  // that the dataset stand-ins have social-network structure.
  graph::CommunityGraphConfig ccfg;
  ccfg.num_vertices = 4096;
  ccfg.avg_degree = 16;
  ccfg.num_communities = 64;
  ccfg.mixing = 0.15;
  const Graph community =
      Graph::from_edges_symmetric(graph::community_scale_free(ccfg));
  graph::ErdosRenyiConfig ecfg;
  ecfg.num_vertices = 4096;
  ecfg.num_edges = 32768;
  const Graph random =
      Graph::from_edges_symmetric(graph::erdos_renyi(ecfg));
  const auto a =
      count_triangles(community, partition::ChunkV().partition(community, 2));
  const auto b =
      count_triangles(random, partition::ChunkV().partition(random, 2));
  EXPECT_GT(a.global_clustering, 3 * b.global_clustering);
}

}  // namespace
}  // namespace bpart::engine
