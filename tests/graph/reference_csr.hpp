// Reference CSR builders for the worker-count invariance tests: the
// sequential, sort-based construction the graph layer used before its
// builders went parallel. Graph::from_edges, from_edges_symmetric and
// apply_permutation must match these array for array at every worker
// count.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace bpart::graph::testing {

/// One side of a sequential counting sort: count, place in edge-list
/// order, then sort every run.
inline void reference_side(const EdgeList& edges, bool reverse,
                           std::vector<EdgeId>& offsets,
                           std::vector<VertexId>& targets) {
  offsets.assign(static_cast<std::size_t>(edges.num_vertices()) + 1, 0);
  for (const Edge& e : edges.edges()) ++offsets[(reverse ? e.dst : e.src) + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  targets.resize(edges.size());
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges.edges())
    targets[cursor[reverse ? e.dst : e.src]++] = reverse ? e.src : e.dst;
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v)
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
}

inline Graph reference_from_edges(const EdgeList& edges) {
  std::vector<EdgeId> out_offsets, in_offsets;
  std::vector<VertexId> out_targets, in_targets;
  reference_side(edges, /*reverse=*/false, out_offsets, out_targets);
  reference_side(edges, /*reverse=*/true, in_offsets, in_targets);
  return Graph::from_csr(std::move(out_offsets), std::move(out_targets),
                         std::move(in_offsets), std::move(in_targets));
}

/// Drop self-loops, add every reverse edge, sort the whole list and
/// deduplicate it, then build.
inline Graph reference_from_edges_symmetric(EdgeList edges) {
  edges.remove_self_loops();
  edges.symmetrize();
  return reference_from_edges(edges);
}

/// Relabel through an edge list: every out-edge (v, u) becomes
/// (perm[v], perm[u]), and both sides are rebuilt from that list.
inline Graph reference_apply_permutation(const Graph& g,
                                         const std::vector<VertexId>& perm) {
  EdgeList edges(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (const VertexId u : g.out_neighbors(v)) edges.add(perm[v], perm[u]);
  edges.set_num_vertices(g.num_vertices());
  return reference_from_edges(edges);
}

template <typename A, typename B>
bool same(const A& a, const B& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

inline void expect_identical(const Graph& got, const Graph& want,
                             const std::string& what) {
  EXPECT_TRUE(same(got.out_offsets(), want.out_offsets())) << what;
  EXPECT_TRUE(same(got.out_targets(), want.out_targets())) << what;
  EXPECT_TRUE(same(got.in_offsets(), want.in_offsets())) << what;
  EXPECT_TRUE(same(got.in_targets(), want.in_targets())) << what;
}

/// Worker counts the invariance tests build at: inline, even, odd, and
/// more workers than this host has cores.
inline constexpr unsigned kWorkerCounts[] = {1, 2, 3, 8};

/// Directed edge cases: parallel edges, self-loops, reverse-only edges,
/// a vertex with only in-edges (9), and isolated tail vertices (10, 11)
/// added by set_num_vertices.
inline EdgeList edge_case_list() {
  EdgeList el;
  el.add(0, 1);
  el.add(0, 1);
  el.add(2, 2);
  el.add(3, 0);
  el.add(1, 4);
  el.add(4, 1);
  el.add(4, 1);
  el.add(5, 8);
  el.add(8, 5);
  el.add(6, 6);
  el.add(6, 2);
  el.add(7, 3);
  el.add(7, 0);
  el.add(1, 7);
  el.add(3, 9);
  el.set_num_vertices(12);
  return el;
}

/// Generated input large enough that 8 workers all run past the build
/// grain (2^16 edges per worker).
inline const EdgeList& large_list() {
  static const EdgeList el = [] {
    CommunityGraphConfig cfg;
    cfg.num_vertices = 1 << 16;
    cfg.avg_degree = 20;
    cfg.seed = 41;
    return community_scale_free(cfg);
  }();
  return el;
}

}  // namespace bpart::graph::testing
