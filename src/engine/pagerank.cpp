#include "engine/pagerank.hpp"

#include "exec/edge_map.hpp"
#include "exec/scheduler.hpp"
#include "exec/simd.hpp"
#include "obs/trace.hpp"

namespace bpart::engine {

// Ranks are computed pull-style — each destination gathers shares from its
// in-neighbors in CSR order — so every floating-point sum has a fixed
// association independent of worker count or steal schedule. Dangling mass
// is reduced as per-chunk partials folded in chunk order; chunk boundaries
// depend only on the CSR offsets and the chunk size, never on threads. The
// accounting (work per machine, message matrix) does not change across
// iterations, so it is tallied once and replayed.
PageRankResult pagerank(const graph::Graph& g,
                        const partition::Partition& parts,
                        const PageRankConfig& cfg, cluster::CostModel model) {
  BPART_SPAN("engine/pagerank", "vertices",
             static_cast<double>(g.num_vertices()), "iterations",
             static_cast<double>(cfg.iterations));
  DistContext ctx(g, parts, model);
  const graph::VertexId n = g.num_vertices();
  const double inv_n = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  const std::uint32_t chunk_edges = cfg.exec.chunk_edges;

  exec::Executor ex(cfg.exec.resolved_threads());
  const auto out_plan =
      exec::ChunkScheduler::over_range(g.out_offsets(), 0, n, chunk_edges);
  const auto in_plan =
      exec::ChunkScheduler::over_range(g.in_offsets(), 0, n, chunk_edges);

  // One pass over the edges to precompute the per-iteration accounting.
  const cluster::MachineId k = ctx.num_machines();
  std::vector<std::uint64_t> work(k, 0);
  std::vector<std::uint64_t> msgs(static_cast<std::size_t>(k) * k, 0);
  for (graph::VertexId v = 0; v < n; ++v) {
    const cluster::MachineId owner = ctx.machine_of(v);
    const auto degree = g.out_degree(v);
    work[owner] += degree == 0 ? 1 : degree;
    for (graph::VertexId u : g.out_neighbors(v))
      ++msgs[static_cast<std::size_t>(owner) * k + ctx.machine_of(u)];
  }

  std::vector<double> rank(n, inv_n);
  std::vector<double> next(n, 0.0);
  std::vector<double> share(n, 0.0);
  std::vector<double> chunk_dangling(out_plan.num_chunks(), 0.0);

  for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
    BPART_SPAN("engine/iteration", "iteration", static_cast<double>(iter));
    ctx.sim().begin_iteration();

    // Scatter phase: share[v] = rank[v]/deg(v), dangling partial per chunk.
    ex.run(out_plan, [&](unsigned, std::uint32_t chunk, graph::VertexId lo,
                         graph::VertexId hi) {
      double dangling = 0.0;
      for (graph::VertexId v = lo; v < hi; ++v) {
        const auto degree = g.out_degree(v);
        if (degree == 0) {
          dangling += rank[v];
          share[v] = 0.0;
        } else {
          share[v] = rank[v] / static_cast<double>(degree);
        }
      }
      chunk_dangling[chunk] = dangling;
    });
    double dangling_mass = 0.0;
    for (double d : chunk_dangling) dangling_mass += d;

    const double base = (1.0 - cfg.damping) * inv_n +
                        cfg.damping * dangling_mass * inv_n;

    // Gather phase: every destination sums its in-neighbors' shares
    // through the vectorized fold (exec/simd.hpp); upcoming destinations'
    // edge ranges are prefetched by the CSR-aware pull overload.
    exec::process_edges_pull(
        ex, in_plan, g.in_offsets(), g.in_targets(),
        [&](unsigned, std::uint32_t, graph::VertexId v) {
          const double acc =
              exec::simd::gather_sum(g.in_neighbors(v), share.data());
          next[v] = base + cfg.damping * acc;
        });
    rank.swap(next);

    for (cluster::MachineId m = 0; m < k; ++m) {
      if (work[m] != 0) ctx.sim().add_work(m, work[m]);
      for (cluster::MachineId d = 0; d < k; ++d) {
        const std::uint64_t count = msgs[static_cast<std::size_t>(m) * k + d];
        if (count != 0 && m != d) ctx.sim().add_message(m, d, count);
      }
    }
    ctx.sim().end_iteration();
  }

  return PageRankResult{std::move(rank), ctx.sim().finish()};
}

}  // namespace bpart::engine
