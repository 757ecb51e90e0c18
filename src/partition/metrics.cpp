#include "partition/metrics.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace bpart::partition {

QualityReport evaluate(const graph::Graph& g, const Partition& p) {
  QualityReport r;
  r.vertex_counts = p.vertex_counts();
  r.edge_counts = p.edge_counts(g);
  r.vertex_summary = stats::summarize(stats::to_doubles(r.vertex_counts));
  r.edge_summary = stats::summarize(stats::to_doubles(r.edge_counts));
  r.edge_cut_ratio = edge_cut_ratio(g, p);
  return r;
}

std::uint64_t edge_cut_count(const graph::Graph& g, const Partition& p) {
  BPART_CHECK(g.num_vertices() == p.num_vertices());
  std::uint64_t cut = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId pv = p[v];
    for (graph::VertexId u : g.out_neighbors(v)) {
      if (pv == kUnassigned || p[u] == kUnassigned || p[u] != pv) ++cut;
    }
  }
  return cut;
}

double edge_cut_ratio(const graph::Graph& g, const Partition& p) {
  if (g.num_edges() == 0) return 0.0;
  return static_cast<double>(edge_cut_count(g, p)) /
         static_cast<double>(g.num_edges());
}

std::vector<std::vector<std::uint64_t>> cut_matrix(const graph::Graph& g,
                                                   const Partition& p) {
  BPART_CHECK(g.num_vertices() == p.num_vertices());
  const PartId k = p.num_parts();
  std::vector<std::vector<std::uint64_t>> m(
      k, std::vector<std::uint64_t>(k, 0));
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartId pv = p[v];
    if (pv == kUnassigned) continue;
    for (graph::VertexId u : g.out_neighbors(v)) {
      const PartId pu = p[u];
      if (pu == kUnassigned) continue;
      ++m[pv][pu];
    }
  }
  return m;
}

std::uint64_t min_pairwise_connectivity(const graph::Graph& g,
                                        const Partition& p) {
  const auto m = cut_matrix(g, p);
  const PartId k = p.num_parts();
  if (k < 2) return 0;
  std::uint64_t min_pair = std::numeric_limits<std::uint64_t>::max();
  for (PartId i = 0; i < k; ++i)
    for (PartId j = i + 1; j < k; ++j)
      min_pair = std::min(min_pair, m[i][j] + m[j][i]);
  return min_pair;
}

}  // namespace bpart::partition
