#include "graph/reorder.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace bpart {

const char* reorder_mode_name(ReorderMode mode) {
  switch (mode) {
    case ReorderMode::kDegree: return "degree";
    case ReorderMode::kBfs: return "bfs";
    case ReorderMode::kRandom: return "random";
    case ReorderMode::kNone: break;
  }
  return "none";
}

}  // namespace bpart

namespace bpart::graph {

bool is_permutation(const std::vector<VertexId>& perm) {
  std::vector<bool> seen(perm.size(), false);
  for (VertexId x : perm) {
    if (x >= perm.size() || seen[x]) return false;
    seen[x] = true;
  }
  return true;
}

Graph apply_permutation(const Graph& g, const std::vector<VertexId>& perm,
                        unsigned workers) {
  BPART_CHECK_MSG(perm.size() == g.num_vertices(),
                  "permutation size mismatch");
  BPART_CHECK_MSG(is_permutation(perm), "not a permutation of [0, n)");
  return Graph::relabeled(g, perm, workers);
}

std::vector<VertexId> degree_order(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](VertexId a, VertexId b) {
                     return g.out_degree(a) > g.out_degree(b);
                   });
  // by_degree[rank] = old id; invert to perm[old id] = rank.
  std::vector<VertexId> perm(n);
  for (VertexId rank = 0; rank < n; ++rank) perm[by_degree[rank]] = rank;
  return perm;
}

std::vector<VertexId> bfs_order(const Graph& g, VertexId source) {
  const VertexId n = g.num_vertices();
  BPART_CHECK(source < n);
  std::vector<VertexId> perm(n, kInvalidVertex);
  VertexId next_rank = 0;
  std::deque<VertexId> queue{source};
  perm[source] = next_rank++;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    g.for_each_neighbor(v, [&](VertexId u, unsigned) {
      if (perm[u] == kInvalidVertex) {
        perm[u] = next_rank++;
        queue.push_back(u);
      }
    });
  }
  for (VertexId v = 0; v < n; ++v)
    if (perm[v] == kInvalidVertex) perm[v] = next_rank++;
  return perm;
}

std::vector<VertexId> invert_permutation(const std::vector<VertexId>& perm) {
  BPART_CHECK_MSG(is_permutation(perm), "not a permutation of [0, n)");
  std::vector<VertexId> inv(perm.size());
  for (VertexId old_id = 0; old_id < perm.size(); ++old_id)
    inv[perm[old_id]] = old_id;
  return inv;
}

std::vector<VertexId> select_order(const Graph& g, ReorderMode mode,
                                   std::uint64_t seed) {
  switch (mode) {
    case ReorderMode::kNone:
      return {};
    case ReorderMode::kDegree:
      return degree_order(g);
    case ReorderMode::kBfs: {
      if (g.num_vertices() == 0) return {};
      VertexId hub = 0;
      for (VertexId v = 1; v < g.num_vertices(); ++v)
        if (g.out_degree(v) > g.out_degree(hub)) hub = v;
      return bfs_order(g, hub);
    }
    case ReorderMode::kRandom:
      return random_order(g.num_vertices(), seed);
  }
  return {};
}

std::vector<VertexId> random_order(VertexId n, std::uint64_t seed) {
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  Xoshiro256 rng(seed);
  for (VertexId i = n; i > 1; --i)
    std::swap(perm[i - 1], perm[rng.bounded(i)]);
  return perm;
}

}  // namespace bpart::graph
