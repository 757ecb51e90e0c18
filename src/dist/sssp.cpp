#include "dist/sssp.hpp"

#include <memory>

#include "dist/dist_graph.hpp"
#include "dist/ghost_buffer.hpp"
#include "exec/edge_map.hpp"
#include "exec/scheduler.hpp"

namespace bpart::dist {

namespace {

struct DistMsg {
  graph::VertexId vertex;
  std::uint64_t distance;
};

// Per-machine state. Distances are frozen for each superstep's scan;
// candidates min-combine through per-worker shards (domain = owned + ghost
// slots), and the merge applies improvements, activations and ghost
// combines on one thread. Deterministic for every thread count.
struct SsspMachine {
  std::vector<std::uint64_t> dist;  // owned local ids
  GhostBuffer<std::uint64_t> ghosts;  // best candidate ever sent per ghost
  std::vector<graph::VertexId> frontier, next;
  std::vector<std::uint8_t> in_frontier, in_next;
  std::unique_ptr<exec::Executor> ex;
  exec::ScatterShards<std::uint64_t> shards;
};

}  // namespace

engine::SsspResult sssp(const graph::Graph& g,
                        const partition::Partition& parts,
                        graph::VertexId source, const engine::SsspConfig& cfg,
                        const DistOptions& opts, std::size_t max_supersteps) {
  BPART_CHECK(g.num_vertices() == parts.num_vertices());
  BPART_CHECK(parts.fully_assigned());
  BPART_CHECK(source < g.num_vertices());
  BPART_CHECK(cfg.max_weight >= 1);
  const graph::VertexId n = g.num_vertices();
  const MachineId machines = parts.num_parts();
  constexpr std::uint64_t kInf = engine::SsspResult::kUnreachable;

  const DistGraph dg(g, parts, opts.threads);
  std::vector<SsspMachine> state(machines);
  for (MachineId m = 0; m < machines; ++m) {
    const partition::Subgraph& sub = dg.subgraph(m);
    SsspMachine& me = state[m];
    me.dist.assign(sub.num_local, kInf);
    me.ghosts.reset(sub.num_ghosts, kInf);
    me.in_frontier.assign(sub.num_local, 0);
    me.in_next.assign(sub.num_local, 0);
    me.ex = std::make_unique<exec::Executor>(opts.exec.resolved_threads());
  }
  {
    const MachineId src_owner = dg.owner(source);
    const graph::VertexId l = dg.owner_local(source);
    state[src_owner].dist[l] = 0;
    state[src_owner].frontier.push_back(l);
    state[src_owner].in_frontier[l] = 1;
  }

  RuntimeConfig rcfg;
  rcfg.threads = opts.threads;
  rcfg.max_supersteps = max_supersteps;
  RunResult run = Runtime<DistMsg>::run(
      machines, rcfg, [&](Runtime<DistMsg>::Context& ctx, std::size_t) {
        SsspMachine& me = state[ctx.self()];
        const partition::Subgraph& sub = dg.subgraph(ctx.self());
        const graph::VertexId num_local = sub.num_local;

        auto activate_now = [&](graph::VertexId v) {
          if (!me.in_frontier[v]) {
            me.in_frontier[v] = 1;
            me.frontier.push_back(v);
          }
        };

        ctx.for_each_message([&](const DistMsg& msg) {
          const graph::VertexId l = dg.owner_local(msg.vertex);
          if (msg.distance < me.dist[l]) {
            me.dist[l] = msg.distance;
            activate_now(l);
          }
        });

        const std::size_t domain =
            static_cast<std::size_t>(num_local) + sub.num_ghosts;
        me.shards.reset(me.ex->threads(), domain);
        std::uint64_t scan_work = 0;
        for (graph::VertexId u : me.frontier)
          scan_work += sub.local.out_degree(u) + 1;
        const auto plan = exec::ChunkScheduler::over_list(
            me.frontier.size(),
            [&](std::size_t i) { return sub.local.out_degree(me.frontier[i]); },
            opts.exec.chunk_edges);
        me.ex->run(plan, [&](unsigned w, std::uint32_t, std::uint32_t lo,
                             std::uint32_t hi) {
          for (std::uint32_t i = lo; i < hi; ++i) {
            const graph::VertexId u = me.frontier[i];
            const std::uint64_t du = me.dist[u];
            const graph::VertexId gu = sub.global_id[u];
            for (graph::VertexId t : sub.local.out_neighbors(u)) {
              const std::uint64_t cand =
                  du + engine::sssp_edge_weight(gu, sub.global_id[t], cfg);
              if (t < num_local) {
                if (cand < me.dist[t]) me.shards.combine_min(w, t, cand);
              } else if (cand < me.ghosts.value(t - num_local)) {
                me.shards.combine_min(w, t, cand);  // slot num_local+ghost
              }
            }
          }
        });
        me.shards.merge([&](std::size_t i, std::uint64_t cand) {
          if (i < num_local) {
            const auto t = static_cast<graph::VertexId>(i);
            if (cand < me.dist[t]) {
              me.dist[t] = cand;
              if (!me.in_next[t]) {
                me.in_next[t] = 1;
                me.next.push_back(t);
              }
            }
          } else {
            me.ghosts.combine_min(static_cast<graph::VertexId>(i - num_local),
                                  cand);
          }
        });
        ctx.add_work(scan_work);

        ctx.mark_comm();
        me.ghosts.flush(
            [&](graph::VertexId ghost, std::uint64_t d) {
              ctx.send(sub.ghost_owner[ghost],
                       DistMsg{sub.global_id[num_local + ghost], d});
            },
            /*keep_values=*/true);

        for (graph::VertexId u : me.frontier) me.in_frontier[u] = 0;
        me.frontier.clear();
        me.frontier.swap(me.next);
        me.in_frontier.swap(me.in_next);
        return me.frontier.empty() ? Vote::kHalt : Vote::kContinue;
      });

  engine::SsspResult result;
  result.distance.assign(n, kInf);
  for (MachineId m = 0; m < machines; ++m) {
    const partition::Subgraph& sub = dg.subgraph(m);
    for (graph::VertexId v = 0; v < sub.num_local; ++v)
      result.distance[sub.global_id[v]] = state[m].dist[v];
  }
  result.run = std::move(run.report);
  return result;
}

}  // namespace bpart::dist
