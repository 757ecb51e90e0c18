#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/reorder.hpp"
#include "reference_csr.hpp"

namespace bpart::graph {
namespace {

EdgeList triangle_plus_tail() {
  // 0 -> 1 -> 2 -> 0 (directed triangle) plus 2 -> 3.
  EdgeList el;
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 0);
  el.add(2, 3);
  return el;
}

TEST(Graph, CountsMatchEdgeList) {
  const Graph g = Graph::from_edges(triangle_plus_tail());
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 1.0);
}

TEST(Graph, OutAdjacency) {
  const Graph g = Graph::from_edges(triangle_plus_tail());
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(2), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
  const auto n2 = g.out_neighbors(2);
  ASSERT_EQ(n2.size(), 2u);
  EXPECT_EQ(n2[0], 0u);  // sorted
  EXPECT_EQ(n2[1], 3u);
}

TEST(Graph, InAdjacency) {
  const Graph g = Graph::from_edges(triangle_plus_tail());
  EXPECT_EQ(g.in_degree(0), 1u);
  EXPECT_EQ(g.in_degree(3), 1u);
  const auto in0 = g.in_neighbors(0);
  ASSERT_EQ(in0.size(), 1u);
  EXPECT_EQ(in0[0], 2u);
}

TEST(Graph, OutNeighborIndexAccess) {
  const Graph g = Graph::from_edges(triangle_plus_tail());
  EXPECT_EQ(g.out_neighbor(2, 0), 0u);
  EXPECT_EQ(g.out_neighbor(2, 1), 3u);
}

TEST(Graph, NeighborsAreSortedRegardlessOfInsertOrder) {
  EdgeList el;
  el.add(0, 9);
  el.add(0, 3);
  el.add(0, 7);
  el.add(0, 1);
  const Graph g = Graph::from_edges(el);
  const auto nbrs = g.out_neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, ParallelEdgesPreserved) {
  EdgeList el;
  el.add(0, 1);
  el.add(0, 1);
  const Graph g = Graph::from_edges(el);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out_degree(0), 2u);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(EdgeList{});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 0.0);
}

TEST(Graph, IsolatedVerticesKeepZeroDegrees) {
  EdgeList el;
  el.add(0, 1);
  el.set_num_vertices(5);
  const Graph g = Graph::from_edges(el);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.out_degree(4), 0u);
  EXPECT_EQ(g.in_degree(4), 0u);
  EXPECT_TRUE(g.out_neighbors(4).empty());
}

TEST(Graph, SymmetricDetection) {
  EdgeList sym;
  sym.add(0, 1);
  sym.add(1, 0);
  EXPECT_TRUE(Graph::from_edges(sym).is_symmetric());
  EdgeList asym;
  asym.add(0, 1);
  EXPECT_FALSE(Graph::from_edges(asym).is_symmetric());
}

TEST(Graph, FromEdgesSymmetricCleansInput) {
  EdgeList el;
  el.add(0, 0);  // self-loop: removed
  el.add(0, 1);  // reverse added
  el.add(1, 0);  // duplicate after symmetrize: collapsed
  const Graph g = Graph::from_edges_symmetric(el);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(1), 1u);
}

/// True when g serves its out arrays as its in-side: one stored side.
bool shares_sides(const Graph& g) {
  return g.in_offsets().data() == g.out_offsets().data() &&
         g.in_targets().data() == g.out_targets().data();
}

TEST(Graph, SymmetricBuildAndItsRelabelAreOneSided) {
  const Graph sym = Graph::from_edges_symmetric(triangle_plus_tail());
  EXPECT_TRUE(sym.one_sided());
  EXPECT_TRUE(shares_sides(sym));
  const Graph relabeled = apply_permutation(sym, {3, 1, 0, 2});
  EXPECT_TRUE(relabeled.one_sided());
  EXPECT_TRUE(shares_sides(relabeled));
  // A directed build stays two-sided, even of a symmetric list.
  EdgeList both;
  both.add_undirected(0, 1);
  for (const Graph& g :
       {Graph::from_edges(triangle_plus_tail()), Graph::from_edges(both)}) {
    EXPECT_FALSE(g.one_sided());
    EXPECT_FALSE(shares_sides(g));
  }
}

TEST(Graph, OneSidedRelabelCountsTheEntriesItPlaces) {
  // A one-sided side that is not symmetric, {0->1, 0->2}, as a forged
  // artifact could hold. Runs laid out from the input's offsets would put
  // the transpose's entries for 1 and 2 past the end of the targets; the
  // relabel counts what it places, so it yields the transpose, a CSR that
  // from_csr's checks accept.
  const Graph g = Graph::from_csr({0, 2, 2, 2}, {1, 2});
  EXPECT_TRUE(shares_sides(g));
  const Graph h = apply_permutation(g, {0, 1, 2});
  EXPECT_TRUE(h.one_sided());
  std::vector<EdgeId> off(h.out_offsets().begin(), h.out_offsets().end());
  std::vector<VertexId> tgt(h.out_targets().begin(), h.out_targets().end());
  EXPECT_EQ(off, (std::vector<EdgeId>{0, 0, 1, 2}));
  EXPECT_EQ(tgt, (std::vector<VertexId>{0, 0}));
  EXPECT_NO_THROW(Graph::from_csr(std::move(off), std::move(tgt)));
}

TEST(Graph, FromCsrRejectsUnsortedRun) {
  // Symmetric as an edge set, but run 0 is {2, 1}: a reader that
  // binary-searches it misses 1, so is_symmetric() would say false.
  EXPECT_THROW(Graph::from_csr({0, 2, 3, 4}, {2, 1, 0, 0}, {0, 2, 3, 4},
                               {2, 1, 0, 0}),
               std::invalid_argument);
  // The in-side is checked too.
  EXPECT_THROW(Graph::from_csr({0, 2, 3, 4}, {1, 2, 0, 0}, {0, 2, 3, 4},
                               {2, 1, 0, 0}),
               std::invalid_argument);
  const Graph sorted = Graph::from_csr({0, 2, 3, 4}, {1, 2, 0, 0},
                                       {0, 2, 3, 4}, {1, 2, 0, 0});
  EXPECT_TRUE(sorted.is_symmetric());
  // Non-decreasing, not strictly increasing: parallel edges stay legal.
  const Graph parallel =
      Graph::from_csr({0, 2, 2}, {1, 1}, {0, 0, 2}, {0, 0});
  EXPECT_EQ(parallel.out_degree(0), 2u);
}

/// Both builders at every worker count against the sequential references.
void expect_builds_match_reference(const EdgeList& el,
                                   const std::string& what) {
  const Graph directed = testing::reference_from_edges(el);
  const Graph symmetric = testing::reference_from_edges_symmetric(el);
  for (const unsigned workers : testing::kWorkerCounts) {
    const std::string at = what + " workers=" + std::to_string(workers);
    testing::expect_identical(Graph::from_edges(el, workers), directed,
                              at + " directed");
    testing::expect_identical(Graph::from_edges_symmetric(el, workers),
                              symmetric, at + " symmetric");
  }
}

TEST(GraphBuild, EdgeCasesMatchReference) {
  expect_builds_match_reference(testing::edge_case_list(), "edge cases");
}

TEST(GraphBuild, EmptyAndSingleVertexMatchReference) {
  expect_builds_match_reference(EdgeList{}, "empty");
  expect_builds_match_reference(EdgeList(1), "n=1");
  EdgeList loop;
  loop.add(0, 0);
  expect_builds_match_reference(loop, "n=1 self-loop");
}

TEST(GraphBuild, HubHeavyListMatchesReference) {
  // Three vertices share 2^18 edges, so 8 workers split a hub run and
  // leave most vertex ranges empty.
  EdgeList el;
  for (VertexId i = 0; i < (1u << 18); ++i)
    el.add(i % 7 == 0 ? 2 : 0, i % 3);
  expect_builds_match_reference(el, "hub-heavy");
}

TEST(GraphBuild, LargeGraphMatchesReference) {
  const EdgeList& el = testing::large_list();
  ASSERT_GE(el.size(), 600'000u) << "8 workers must run past the grain";
  expect_builds_match_reference(el, "community_scale_free");
}

TEST(Graph, OutDegreesVector) {
  const Graph g = Graph::from_edges(triangle_plus_tail());
  const auto deg = g.out_degrees();
  const std::vector<EdgeId> expect{1, 1, 2, 0};
  EXPECT_EQ(deg, expect);
}

TEST(Graph, SumOfDegreesEqualsEdges) {
  const Graph g = Graph::from_edges(triangle_plus_tail());
  EdgeId total = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    total += g.out_degree(v);
  }
  EXPECT_EQ(total, g.num_edges());
}

}  // namespace
}  // namespace bpart::graph
