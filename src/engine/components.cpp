#include "engine/components.hpp"

#include "engine/exec_tallies.hpp"
#include "exec/edge_map.hpp"
#include "exec/frontier.hpp"
#include "exec/scheduler.hpp"
#include "obs/trace.hpp"

namespace bpart::engine {

ComponentsResult connected_components(const graph::Graph& g,
                                      const partition::Partition& parts,
                                      cluster::CostModel model,
                                      unsigned max_iterations,
                                      const exec::ExecConfig& exec_cfg) {
  BPART_SPAN("engine/components", "vertices",
             static_cast<double>(g.num_vertices()));
  DistContext ctx(g, parts, model);
  const graph::VertexId n = g.num_vertices();

  std::vector<graph::VertexId> label(n);
  for (graph::VertexId v = 0; v < n; ++v) label[v] = v;
  // Invariant at the top of every superstep: next_label == label. Pushes
  // lower next_label entries; only the changed entries are copied back, so
  // a superstep costs O(active) instead of the former full-vector copy.
  std::vector<graph::VertexId> next_label(label);

  exec::Frontier frontier(n);
  exec::Frontier next(n);
  for (graph::VertexId v = 0; v < n; ++v) frontier.add(v);

  exec::Executor ex(exec_cfg.resolved_threads());
  exec::ScatterShards<graph::VertexId> shards;
  WorkerTallies tallies(ex.threads(), ctx.num_machines());

  for (unsigned iter = 0; iter < max_iterations; ++iter) {
    if (frontier.empty()) break;
    ctx.sim().begin_iteration();

    // BSP semantics: this superstep's pushes read `label` and min-combine
    // into `next_label`; receivers see the result only next superstep. The
    // next frontier is exactly {u : next_label[u] < label[u]} — a property
    // of the final minima, so push order (and thread count) cannot change
    // it.
    const std::span<const graph::VertexId> list = frontier.active();
    const auto plan = exec::ChunkScheduler::over_list(
        list.size(),
        [&](std::size_t i) {
          return g.out_degree(list[i]) + g.in_degree(list[i]);
        },
        exec_cfg.chunk_edges);
    shards.reset(ex.threads(), n);
    exec::process_edges_push(
        ex, plan, frontier, [&](unsigned w, graph::VertexId v) {
          const cluster::MachineId owner = ctx.machine_of(v);
          const graph::VertexId lv = label[v];
          auto push = [&](graph::VertexId u) {
            tallies.add_message(w, owner, ctx.machine_of(u));
            if (lv < label[u]) shards.combine_min(w, u, lv);
          };
          tallies.add_work(w, owner, g.out_degree(v) + g.in_degree(v));
          for (graph::VertexId u : g.out_neighbors(v)) push(u);
          for (graph::VertexId u : g.in_neighbors(v)) push(u);
        });
    shards.merge([&](std::size_t u, graph::VertexId lv) {
      if (lv < next_label[u]) {
        next_label[u] = lv;
        next.add(static_cast<graph::VertexId>(u));
      }
    });
    tallies.flush(ctx.sim());

    for (graph::VertexId u : next.active()) label[u] = next_label[u];
    frontier.swap(next);
    next.clear();
    ctx.sim().end_iteration();
  }

  // Dense count: labels are vertex ids, so a byte-map replaces the former
  // unordered_set.
  std::vector<std::uint8_t> seen(n, 0);
  graph::VertexId num_components = 0;
  for (const graph::VertexId l : label) {
    if (seen[l] == 0) {
      seen[l] = 1;
      ++num_components;
    }
  }

  ComponentsResult result;
  result.label = std::move(label);
  result.num_components = num_components;
  result.run = ctx.sim().finish();
  return result;
}

}  // namespace bpart::engine
