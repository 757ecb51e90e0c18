#include "partition/metrics.hpp"

#include <gtest/gtest.h>

#include "graph/csr.hpp"

namespace bpart::partition {
namespace {

using graph::EdgeList;
using graph::Graph;

// Square 0-1-2-3-0 (undirected, 8 directed edges).
Graph square() {
  EdgeList el;
  el.add_undirected(0, 1);
  el.add_undirected(1, 2);
  el.add_undirected(2, 3);
  el.add_undirected(3, 0);
  return Graph::from_edges(el);
}

Partition split_square_adjacent() {
  // {0,1} vs {2,3}: cut edges are 1-2 and 3-0 in both directions = 4.
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  p.assign(3, 1);
  return p;
}

TEST(EdgeCut, CountsCrossPartEdges) {
  EXPECT_EQ(edge_cut_count(square(), split_square_adjacent()), 4u);
  EXPECT_DOUBLE_EQ(edge_cut_ratio(square(), split_square_adjacent()), 0.5);
}

TEST(EdgeCut, OppositeCornersCutEverything) {
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(2, 0);
  p.assign(1, 1);
  p.assign(3, 1);
  EXPECT_DOUBLE_EQ(edge_cut_ratio(square(), p), 1.0);
}

TEST(EdgeCut, SinglePartCutsNothing) {
  Partition p(4, 1);
  for (graph::VertexId v = 0; v < 4; ++v) p.assign(v, 0);
  EXPECT_DOUBLE_EQ(edge_cut_ratio(square(), p), 0.0);
}

TEST(EdgeCut, UnassignedEndpointsCountAsCut) {
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 0);  // 2, 3 unassigned
  EXPECT_EQ(edge_cut_count(square(), p), 6u);  // all edges touching 2 or 3
}

TEST(EdgeCut, EmptyGraphHasZeroRatio) {
  const Graph g = Graph::from_edges(EdgeList{});
  const Partition p(0, 2);
  EXPECT_DOUBLE_EQ(edge_cut_ratio(g, p), 0.0);
}

TEST(CutMatrix, DiagonalHoldsInternalEdges) {
  const auto m = cut_matrix(square(), split_square_adjacent());
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0][0], 2u);  // 0<->1 both directions
  EXPECT_EQ(m[1][1], 2u);  // 2<->3
  EXPECT_EQ(m[0][1], 2u);  // 1->2 and 0->3
  EXPECT_EQ(m[1][0], 2u);
}

TEST(CutMatrix, TotalsMatchEdgeCount) {
  const Graph g = square();
  const auto m = cut_matrix(g, split_square_adjacent());
  std::uint64_t total = 0;
  for (const auto& row : m)
    for (std::uint64_t c : row) total += c;
  EXPECT_EQ(total, g.num_edges());
}

TEST(MinPairwiseConnectivity, SymmetricPairCount) {
  EXPECT_EQ(min_pairwise_connectivity(square(), split_square_adjacent()), 4u);
}

TEST(MinPairwiseConnectivity, ZeroWhenPartsDisconnected) {
  // Two disjoint edges, one per part plus an empty 3rd part pairing.
  EdgeList el;
  el.add_undirected(0, 1);
  el.add_undirected(2, 3);
  const Graph g = Graph::from_edges(el);
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  p.assign(3, 1);
  EXPECT_EQ(min_pairwise_connectivity(g, p), 0u);
}

TEST(MinPairwiseConnectivity, SinglePartIsZero) {
  Partition p(4, 1);
  for (graph::VertexId v = 0; v < 4; ++v) p.assign(v, 0);
  EXPECT_EQ(min_pairwise_connectivity(square(), p), 0u);
}

TEST(Evaluate, AggregatesAllMetrics) {
  const QualityReport r = evaluate(square(), split_square_adjacent());
  ASSERT_EQ(r.vertex_counts.size(), 2u);
  EXPECT_EQ(r.vertex_counts[0], 2u);
  EXPECT_EQ(r.edge_counts[0], 4u);
  EXPECT_DOUBLE_EQ(r.vertex_summary.bias, 0.0);
  EXPECT_DOUBLE_EQ(r.edge_summary.fairness, 1.0);
  EXPECT_DOUBLE_EQ(r.edge_cut_ratio, 0.5);
}

}  // namespace
}  // namespace bpart::partition
