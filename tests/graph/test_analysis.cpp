#include "graph/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"

namespace bpart::graph {
namespace {

EdgeList two_triangles() {
  // Components {0,1,2} and {3,4,5}, undirected.
  EdgeList el;
  el.add_undirected(0, 1);
  el.add_undirected(1, 2);
  el.add_undirected(2, 0);
  el.add_undirected(3, 4);
  el.add_undirected(4, 5);
  el.add_undirected(5, 3);
  return el;
}

TEST(Analyze, BasicCounts) {
  const Graph g = Graph::from_edges(two_triangles());
  const GraphStats s = analyze(g);
  EXPECT_EQ(s.num_vertices, 6u);
  EXPECT_EQ(s.num_edges, 12u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 2.0);
  EXPECT_EQ(s.max_out_degree, 2u);
  EXPECT_EQ(s.isolated_vertices, 0u);
  EXPECT_TRUE(s.symmetric);
  EXPECT_DOUBLE_EQ(s.degree_gini, 0.0);  // regular graph
}

TEST(Analyze, CountsIsolatedVertices) {
  EdgeList el;
  el.add(0, 1);
  el.set_num_vertices(5);
  const GraphStats s = analyze(Graph::from_edges(el));
  // Vertices 2, 3, 4 have no edges in either direction.
  EXPECT_EQ(s.isolated_vertices, 3u);
}

TEST(DegreeHistogram, MatchesDegrees) {
  const Graph g = Graph::from_edges(two_triangles());
  const LogHistogram h = degree_histogram(g);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bucket_count(1), 6u);  // all degrees are 2 -> bucket [2,4)
}

TEST(ConnectedComponents, FindsBothTriangles) {
  const Graph g = Graph::from_edges(two_triangles());
  const auto labels = connected_components(g);
  EXPECT_EQ(count_components(labels), 2u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(ConnectedComponents, DirectedEdgesCountBothWays) {
  // 0 -> 1 only; still one undirected component.
  EdgeList el;
  el.add(0, 1);
  const auto labels = connected_components(Graph::from_edges(el));
  EXPECT_EQ(count_components(labels), 1u);
}

TEST(ConnectedComponents, IsolatedVerticesAreOwnComponents) {
  EdgeList el;
  el.add(0, 1);
  el.set_num_vertices(4);
  const auto labels = connected_components(Graph::from_edges(el));
  EXPECT_EQ(count_components(labels), 3u);
}

TEST(ConnectedComponents, LabelsAreDense) {
  EdgeList el;
  el.add(0, 1);
  el.set_num_vertices(6);
  const auto labels = connected_components(Graph::from_edges(el));
  std::set<VertexId> distinct(labels.begin(), labels.end());
  // Dense labels 0..k-1.
  VertexId expect = 0;
  for (VertexId l : distinct) EXPECT_EQ(l, expect++);
}

TEST(CountComponents, EmptyGraph) {
  EXPECT_EQ(count_components({}), 0u);
}

TEST(Analyze, RmatGiantComponentExists) {
  RmatConfig cfg;
  cfg.scale = 10;
  cfg.edge_factor = 8;
  const Graph g = Graph::from_edges_symmetric(rmat(cfg));
  const auto labels = connected_components(g);
  // Count members of the largest component.
  std::vector<std::uint32_t> sizes(count_components(labels), 0);
  for (VertexId l : labels) ++sizes[l];
  const auto largest = *std::max_element(sizes.begin(), sizes.end());
  EXPECT_GT(largest, g.num_vertices() / 2);
}

}  // namespace
}  // namespace bpart::graph
