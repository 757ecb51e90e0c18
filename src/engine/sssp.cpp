#include "engine/sssp.hpp"

#include "engine/exec_tallies.hpp"
#include "exec/edge_map.hpp"
#include "exec/frontier.hpp"
#include "exec/scheduler.hpp"
#include "util/rng.hpp"

namespace bpart::engine {

std::uint32_t sssp_edge_weight(graph::VertexId u, graph::VertexId v,
                               const SsspConfig& cfg) {
  const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
  return static_cast<std::uint32_t>(splitmix64(key ^ cfg.weight_seed) %
                                    cfg.max_weight) +
         1;
}

// Strict BSP: a superstep relaxes out-edges of the frontier against
// distances frozen at the superstep start, min-combining candidates through
// per-worker shards; the merge applies improvements and builds the next
// frontier. Min-merges and the integer accounting tallies are
// order-independent, so distances, supersteps and the run report are
// deterministic across thread counts.
SsspResult sssp(const graph::Graph& g, const partition::Partition& parts,
                graph::VertexId source, const SsspConfig& cfg,
                cluster::CostModel model) {
  BPART_CHECK(source < g.num_vertices());
  BPART_CHECK(cfg.max_weight >= 1);
  DistContext ctx(g, parts, model);
  const graph::VertexId n = g.num_vertices();

  SsspResult result;
  result.distance.assign(n, SsspResult::kUnreachable);
  result.distance[source] = 0;

  exec::Frontier frontier(n);
  exec::Frontier next(n);
  frontier.add(source);

  exec::Executor ex(cfg.exec.resolved_threads());
  exec::ScatterShards<std::uint64_t> shards;
  WorkerTallies tallies(ex.threads(), ctx.num_machines());

  while (!frontier.empty()) {
    ctx.sim().begin_iteration();
    const std::span<const graph::VertexId> list = frontier.active();
    const auto plan = exec::ChunkScheduler::over_list(
        list.size(), [&](std::size_t i) { return g.out_degree(list[i]); },
        cfg.exec.chunk_edges);
    shards.reset(ex.threads(), n);
    exec::process_edges_push(
        ex, plan, frontier, [&](unsigned w, graph::VertexId v) {
          const cluster::MachineId owner = ctx.machine_of(v);
          tallies.add_work(w, owner, g.out_degree(v) + 1);
          const std::uint64_t dv = result.distance[v];
          for (graph::VertexId u : g.out_neighbors(v)) {
            tallies.add_message(w, owner, ctx.machine_of(u));
            const std::uint64_t cand = dv + sssp_edge_weight(v, u, cfg);
            if (cand < result.distance[u]) shards.combine_min(w, u, cand);
          }
        });
    shards.merge([&](std::size_t u, std::uint64_t cand) {
      if (cand < result.distance[u]) {
        result.distance[u] = cand;
        next.add(static_cast<graph::VertexId>(u));
      }
    });
    tallies.flush(ctx.sim());
    frontier.swap(next);
    next.clear();
    ctx.sim().end_iteration();
  }

  result.run = ctx.sim().finish();
  return result;
}

}  // namespace bpart::engine
