#include "engine/triangles.hpp"

#include <algorithm>

namespace bpart::engine {

namespace {

/// Degree ordering with id tie-break: the standard trick that makes the
/// per-edge intersection cost O(sqrt(m)) amortized on power-law graphs.
bool ranked_before(const graph::Graph& g, graph::VertexId a,
                   graph::VertexId b) {
  const auto da = g.out_degree(a);
  const auto db = g.out_degree(b);
  return da != db ? da < db : a < b;
}

}  // namespace

TriangleResult count_triangles(const graph::Graph& g,
                               const partition::Partition& parts,
                               cluster::CostModel model) {
  BPART_CHECK_MSG(g.is_symmetric(), "count_triangles needs a symmetric graph");
  DistContext ctx(g, parts, model);
  const graph::VertexId n = g.num_vertices();

  TriangleResult result;
  result.per_vertex.assign(n, 0);

  // Forward adjacency: for each v, its neighbors ranked after it. Building
  // this is one pass (counted as a setup iteration).
  std::vector<std::vector<graph::VertexId>> forward(n);
  ctx.sim().begin_iteration();
  for (graph::VertexId v = 0; v < n; ++v) {
    ctx.sim().add_work(ctx.machine_of(v), g.out_degree(v) + 1);
    for (graph::VertexId u : g.out_neighbors(v))
      if (ranked_before(g, v, u)) forward[v].push_back(u);
    std::sort(forward[v].begin(), forward[v].end());
  }
  ctx.sim().end_iteration();

  // Intersection pass: triangle {v,u,w} is counted exactly once, at its
  // lowest-ranked vertex v with rank(v) < rank(u) < rank(w).
  ctx.sim().begin_iteration();
  for (graph::VertexId v = 0; v < n; ++v) {
    const cluster::MachineId owner = ctx.machine_of(v);
    for (graph::VertexId u : forward[v]) {
      // Processing edge (v, u) needs u's forward list; remote u = one
      // shipped adjacency message.
      ctx.sim().add_message(ctx.machine_of(u), owner);
      const auto& fv = forward[v];
      const auto& fu = forward[u];
      ctx.sim().add_work(owner, fv.size() + fu.size());
      // Sorted intersection.
      std::size_t i = 0, j = 0;
      while (i < fv.size() && j < fu.size()) {
        if (fv[i] < fu[j]) {
          ++i;
        } else if (fv[i] > fu[j]) {
          ++j;
        } else {
          const graph::VertexId w = fv[i];
          ++result.total_triangles;
          ++result.per_vertex[v];
          ++result.per_vertex[u];
          ++result.per_vertex[w];
          ++i;
          ++j;
        }
      }
    }
  }
  ctx.sim().end_iteration();

  // Global clustering coefficient: 3·triangles over wedges (paths of
  // length 2). Wedges = Σ d(d−1)/2 over the undirected degree.
  double wedges = 0;
  for (graph::VertexId v = 0; v < n; ++v) {
    const double d = static_cast<double>(g.out_degree(v));
    wedges += d * (d - 1.0) / 2.0;
  }
  result.global_clustering =
      wedges > 0 ? 3.0 * static_cast<double>(result.total_triangles) / wedges
                 : 0.0;
  result.run = ctx.sim().finish();
  return result;
}

}  // namespace bpart::engine
