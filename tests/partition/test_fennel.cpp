#include "partition/fennel.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.hpp"
#include "test_graphs.hpp"
#include "partition/chunk.hpp"
#include "partition/hash_partitioner.hpp"
#include "partition/metrics.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace bpart::partition {
namespace {

using graph::Graph;

using testing::social_graph;

TEST(Fennel, FullyAssignedWithExactParts) {
  const Graph g = social_graph();
  const Partition p = Fennel().partition(g, 8);
  EXPECT_TRUE(p.fully_assigned());
  EXPECT_EQ(p.num_parts(), 8u);
  for (auto c : p.vertex_counts()) EXPECT_GT(c, 0u);
}

TEST(Fennel, Deterministic) {
  const Graph g = social_graph();
  const Partition a = Fennel().partition(g, 4);
  const Partition b = Fennel().partition(g, 4);
  for (graph::VertexId v = 0; v < g.num_vertices(); v += 211)
    EXPECT_EQ(a[v], b[v]);
}

TEST(Fennel, BalancesVertices) {
  const Graph g = social_graph();
  const Partition p = Fennel().partition(g, 8);
  EXPECT_LT(stats::bias(stats::to_doubles(p.vertex_counts())), 0.25);
}

TEST(Fennel, CutsFarFewerEdgesThanHash) {
  // Paper Fig. 5(a): Fennel ~30% cut vs Hash ~88% at k=8.
  const Graph g = social_graph();
  const double fennel_cut = edge_cut_ratio(g, Fennel().partition(g, 8));
  const double hash_cut =
      edge_cut_ratio(g, HashPartitioner().partition(g, 8));
  EXPECT_LT(fennel_cut, 0.6 * hash_cut);
}

TEST(Fennel, EdgesRemainImbalanced) {
  // Paper Limitation #1: Fennel balances vertices, not edges.
  const Graph g = social_graph();
  const Partition p = Fennel().partition(g, 8);
  const double edge_bias = stats::bias(stats::to_doubles(p.edge_counts(g)));
  const double vertex_bias =
      stats::bias(stats::to_doubles(p.vertex_counts()));
  EXPECT_GT(edge_bias, 2 * vertex_bias);
}

TEST(Fennel, CapacityCapPreventsCollapse) {
  // On a clique stream, the overlap term always favors the first part; the
  // capacity cap must still force a spread.
  graph::EdgeList el;
  for (graph::VertexId v = 0; v < 64; ++v)
    for (graph::VertexId u = 0; u < 64; ++u)
      if (v != u) el.add(v, u);
  const Graph g = Graph::from_edges(el);
  const Partition p = Fennel().partition(g, 4);
  for (auto c : p.vertex_counts()) {
    EXPECT_GT(c, 0u);
    EXPECT_LE(c, 20u);  // 1.2 slack * 16 ideal = 19.2
  }
}

TEST(Fennel, RespectsExplicitAlpha) {
  // A huge alpha makes the penalty dominate -> nearly perfect vertex
  // balance (it degenerates toward least-loaded assignment).
  const Graph g = social_graph();
  StreamConfig cfg;
  cfg.alpha = 1e9;
  const Partition p = Fennel(cfg).partition(g, 8);
  EXPECT_LT(stats::bias(stats::to_doubles(p.vertex_counts())), 0.01);
}

TEST(Fennel, SinglePart) {
  const Graph g = social_graph();
  const Partition p = Fennel().partition(g, 1);
  EXPECT_TRUE(p.fully_assigned());
  EXPECT_DOUBLE_EQ(edge_cut_ratio(g, p), 0.0);
}

TEST(GreedyStream, SubsetLeavesOthersUnassigned) {
  const Graph g = social_graph();
  std::vector<graph::VertexId> subset;
  for (graph::VertexId v = 0; v < g.num_vertices(); v += 2)
    subset.push_back(v);
  const Partition p = greedy_stream_partition(g, subset, 4, StreamConfig{});
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v % 2 == 0) EXPECT_NE(p[v], kUnassigned);
    else EXPECT_EQ(p[v], kUnassigned);
  }
}

TEST(GreedyStream, RejectsDuplicateSubsetEntries) {
  const Graph g = social_graph();
  const std::vector<graph::VertexId> dup{1, 1};
  EXPECT_THROW(greedy_stream_partition(g, dup, 2, StreamConfig{}),
               CheckError);
}

// Buffered pass at batch 64 over 256 vertices: [0, 64) is the sequential
// warm-up batch, [192, 256) the last buffered batch. Slack 0 (no cap)
// commits every batch in bulk; at slack 1.0 the last batch fills the parts
// to capacity, so it commits vertex by vertex against exact state.
void expect_buffered_duplicate_throws(graph::VertexId first_idx,
                                      graph::VertexId dup_idx) {
  const Graph g = social_graph();
  std::vector<graph::VertexId> verts(256);
  std::iota(verts.begin(), verts.end(), graph::VertexId{0});
  verts[dup_idx] = verts[first_idx];
  for (const double slack : {0.0, 1.0}) {
    StreamConfig cfg;
    cfg.batch_size = 64;
    cfg.threads = 2;
    cfg.capacity_slack = slack;
    EXPECT_THROW(greedy_stream_partition(g, verts, 2, cfg), CheckError)
        << "slack " << slack;
  }
}

TEST(GreedyStream, RejectsDuplicateInsideOneBufferedBatch) {
  expect_buffered_duplicate_throws(200, 250);
}

TEST(GreedyStream, RejectsDuplicateAcrossWarmupAndBufferedBatch) {
  expect_buffered_duplicate_throws(10, 200);
}

TEST(GreedyStream, EmptySubsetIsNoop) {
  const Graph g = social_graph();
  const Partition p = greedy_stream_partition(g, {}, 4, StreamConfig{});
  EXPECT_FALSE(p.fully_assigned());
}

TEST(GreedyStream, WeightedIndicatorShiftsBalance) {
  // c=0 balances edges: edge bias should drop well below the c=1 result.
  const Graph g = social_graph();
  std::vector<graph::VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), graph::VertexId{0});
  StreamConfig vcfg;  // c = 1
  StreamConfig ecfg;
  ecfg.balance_weight_c = 0.0;
  const auto pv = greedy_stream_partition(g, all, 8, vcfg);
  const auto pe = greedy_stream_partition(g, all, 8, ecfg);
  const double edge_bias_v = stats::bias(stats::to_doubles(pv.edge_counts(g)));
  const double edge_bias_e = stats::bias(stats::to_doubles(pe.edge_counts(g)));
  EXPECT_LT(edge_bias_e, edge_bias_v);
}

}  // namespace
}  // namespace bpart::partition
