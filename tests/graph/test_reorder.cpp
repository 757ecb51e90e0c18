#include "graph/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "reference_csr.hpp"
#include "util/check.hpp"

namespace bpart::graph {
namespace {

Graph test_graph() {
  CommunityGraphConfig cfg;
  cfg.num_vertices = 2048;
  cfg.avg_degree = 12;
  cfg.num_communities = 16;
  cfg.seed = 19;
  return Graph::from_edges_symmetric(community_scale_free(cfg));
}

TEST(IsPermutation, Detects) {
  EXPECT_TRUE(is_permutation({2, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 0, 1}));  // duplicate
  EXPECT_FALSE(is_permutation({0, 3, 1}));  // out of range
  EXPECT_TRUE(is_permutation({}));
}

TEST(ApplyPermutation, IdentityIsNoop) {
  const Graph g = test_graph();
  std::vector<VertexId> id(g.num_vertices());
  std::iota(id.begin(), id.end(), VertexId{0});
  const Graph h = apply_permutation(g, id);
  for (VertexId v = 0; v < g.num_vertices(); v += 61)
    EXPECT_EQ(g.out_degree(v), h.out_degree(v));
}

TEST(ApplyPermutation, RelabelsEdges) {
  EdgeList el;
  el.add(0, 1);
  el.add(1, 2);
  const Graph g = Graph::from_edges(el);
  // perm: 0->2, 1->0, 2->1
  const Graph h = apply_permutation(g, {2, 0, 1});
  EXPECT_EQ(h.out_degree(2), 1u);  // old 0
  EXPECT_EQ(h.out_neighbors(2)[0], 0u);  // old 1
  EXPECT_EQ(h.out_neighbors(0)[0], 1u);  // old 1 -> old 2
}

TEST(ApplyPermutation, PreservesStructure) {
  const Graph g = test_graph();
  const Graph h = apply_permutation(g, random_order(g.num_vertices(), 5));
  EXPECT_EQ(h.num_edges(), g.num_edges());
  // Degree multiset invariant.
  auto dg = g.out_degrees();
  auto dh = h.out_degrees();
  std::sort(dg.begin(), dg.end());
  std::sort(dh.begin(), dh.end());
  EXPECT_EQ(dg, dh);
  // Component count invariant.
  EXPECT_EQ(count_components(connected_components(g)),
            count_components(connected_components(h)));
}

TEST(ApplyPermutation, ValidatesInput) {
  const Graph g = Graph::from_edges([] {
    EdgeList el;
    el.add(0, 1);
    return el;
  }());
  EXPECT_THROW(apply_permutation(g, {0}), CheckError);      // wrong size
  EXPECT_THROW(apply_permutation(g, {0, 0}), CheckError);   // not a perm
}

/// apply_permutation at every worker count against the edge-list
/// relabel, for each pipeline order on the directed and symmetric graph.
void expect_relabels_match_reference(const EdgeList& el,
                                     const std::string& what) {
  const std::pair<std::string, Graph> graphs[] = {
      {what + " directed", Graph::from_edges(el)},
      {what + " symmetric", Graph::from_edges_symmetric(el)}};
  for (const auto& [name, g] : graphs)
    for (const ReorderMode mode :
         {ReorderMode::kDegree, ReorderMode::kBfs, ReorderMode::kRandom}) {
      const auto perm = select_order(g, mode, 7);
      const Graph want = testing::reference_apply_permutation(g, perm);
      for (const unsigned workers : testing::kWorkerCounts)
        testing::expect_identical(apply_permutation(g, perm, workers), want,
                                  name + " " + reorder_mode_name(mode) +
                                      " workers=" + std::to_string(workers));
    }
}

TEST(ApplyPermutation, EdgeCasesMatchReference) {
  expect_relabels_match_reference(testing::edge_case_list(), "edge cases");
}

TEST(ApplyPermutation, LargeGraphMatchesReference) {
  const EdgeList& el = testing::large_list();
  ASSERT_GE(el.size(), 600'000u) << "8 workers must run past the grain";
  expect_relabels_match_reference(el, "community_scale_free");
}

TEST(DegreeOrder, SortsHubsFirst) {
  const Graph g = test_graph();
  const auto perm = degree_order(g);
  ASSERT_TRUE(is_permutation(perm));
  const Graph h = apply_permutation(g, perm);
  for (VertexId v = 1; v < h.num_vertices(); ++v)
    ASSERT_GE(h.out_degree(v - 1), h.out_degree(v)) << "rank " << v;
}

TEST(BfsOrder, SourceIsFirstAndNeighborsEarly) {
  const Graph g = test_graph();
  const auto perm = bfs_order(g, 7);
  ASSERT_TRUE(is_permutation(perm));
  EXPECT_EQ(perm[7], 0u);
  // All of 7's neighbors must receive ranks below the frontier of the
  // second BFS level — conservatively, below 1 + deg(7) + 1.
  for (VertexId u : g.out_neighbors(7))
    EXPECT_LE(perm[u], g.out_degree(7) + 1);
}

TEST(BfsOrder, UnreachedVerticesGetTailRanks) {
  EdgeList el;
  el.add_undirected(0, 1);
  el.set_num_vertices(4);
  const Graph g = Graph::from_edges(el);
  const auto perm = bfs_order(g, 0);
  ASSERT_TRUE(is_permutation(perm));
  EXPECT_LT(perm[1], 2u);
  EXPECT_GE(perm[2], 2u);
  EXPECT_GE(perm[3], 2u);
}

TEST(RandomOrder, IsSeededPermutation) {
  const auto a = random_order(1000, 3);
  const auto b = random_order(1000, 3);
  const auto c = random_order(1000, 4);
  EXPECT_TRUE(is_permutation(a));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

/// Exact triangle count via wedge checking on the undirected view — small
/// graphs only; the relabel-invariance oracle below.
std::uint64_t count_triangles_naive(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<std::vector<VertexId>> adj(n);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : g.out_neighbors(v)) {
      if (u == v) continue;
      adj[v].push_back(u);
      adj[u].push_back(v);
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  std::uint64_t triangles = 0;
  for (VertexId v = 0; v < n; ++v)
    for (VertexId u : adj[v]) {
      if (u <= v) continue;
      for (VertexId w : adj[u]) {
        if (w <= u) continue;
        if (std::binary_search(adj[v].begin(), adj[v].end(), w)) ++triangles;
      }
    }
  return triangles;
}

TEST(ApplyPermutation, PreservesTriangles) {
  CommunityGraphConfig cfg;
  cfg.num_vertices = 512;
  cfg.avg_degree = 10;
  cfg.num_communities = 8;
  cfg.seed = 23;
  const Graph g = Graph::from_edges_symmetric(community_scale_free(cfg));
  const std::uint64_t want = count_triangles_naive(g);
  EXPECT_GT(want, 0u);
  for (const auto& perm :
       {degree_order(g), bfs_order(g, 0),
        random_order(g.num_vertices(), 5)}) {
    EXPECT_EQ(count_triangles_naive(apply_permutation(g, perm)), want);
  }
}

TEST(InvertPermutation, RoundTrips) {
  const auto perm = random_order(257, 11);
  const auto inv = invert_permutation(perm);
  ASSERT_TRUE(is_permutation(inv));
  for (VertexId v = 0; v < perm.size(); ++v) {
    EXPECT_EQ(inv[perm[v]], v);
    EXPECT_EQ(perm[inv[v]], v);
  }
  EXPECT_THROW(invert_permutation({0, 0}), CheckError);
  EXPECT_THROW(invert_permutation({1, 2}), CheckError);
}

TEST(SelectOrder, ModesMatchTheirGenerators) {
  const Graph g = test_graph();
  EXPECT_TRUE(select_order(g, ReorderMode::kNone, 0).empty());
  EXPECT_EQ(select_order(g, ReorderMode::kDegree, 0), degree_order(g));
  EXPECT_EQ(select_order(g, ReorderMode::kRandom, 9),
            random_order(g.num_vertices(), 9));
  // BFS seeds from the highest-out-degree hub (lowest id on ties).
  VertexId hub = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v)
    if (g.out_degree(v) > g.out_degree(hub)) hub = v;
  const auto perm = select_order(g, ReorderMode::kBfs, 0);
  ASSERT_TRUE(is_permutation(perm));
  EXPECT_EQ(perm[hub], 0u);
}

}  // namespace
}  // namespace bpart::graph
