#include "dist/components.hpp"

#include <memory>

#include "dist/dist_graph.hpp"
#include "dist/ghost_buffer.hpp"
#include "exec/edge_map.hpp"
#include "exec/scheduler.hpp"
#include "obs/trace.hpp"

namespace bpart::dist {

namespace {

struct LabelMsg {
  graph::VertexId vertex;
  graph::VertexId label;
};

// Per-machine state. A superstep freezes labels and ghost values; each
// exec worker computes the closed-neighborhood minimum of its vertices and
// offers it through per-worker min-shards (domain = owned + ghost slots);
// the merge applies label drops, activations and ghost combines on one
// thread. Min-merges are order-independent, so labels and superstep counts
// are identical for every thread count.
struct CcMachine {
  std::vector<graph::VertexId> lab;  // owned local ids
  GhostBuffer<graph::VertexId> ghosts;  // slot = best-known remote label
  // Current-superstep frontier (consumed by the scan) and next-superstep
  // frontier (filled by the merge).
  std::vector<graph::VertexId> frontier, next;
  std::vector<std::uint8_t> in_frontier, in_next;
  // Owned vertices whose label dropped this superstep and that have
  // mirrors — the master -> mirror broadcast list.
  std::vector<graph::VertexId> changed_masters;
  std::vector<std::uint8_t> master_marked;
  std::unique_ptr<exec::Executor> ex;
  exec::ChunkScheduler dense_plan;  // owned range, out-edge balanced
  exec::ScatterShards<graph::VertexId> shards;
  std::uint64_t dense_work = 0;  // Σ out+in degree over owned
};

}  // namespace

engine::ComponentsResult connected_components(const graph::Graph& g,
                                              const partition::Partition& parts,
                                              const DistOptions& opts,
                                              std::size_t max_supersteps) {
  BPART_CHECK(g.num_vertices() == parts.num_vertices());
  BPART_CHECK(parts.fully_assigned());
  const graph::VertexId n = g.num_vertices();
  const MachineId machines = parts.num_parts();

  const DistGraph dg(g, parts, opts.threads);
  const unsigned exec_threads = opts.exec.resolved_threads();
  const std::uint32_t chunk_edges = opts.exec.chunk_edges;
  std::vector<CcMachine> state(machines);
  for (MachineId m = 0; m < machines; ++m) {
    const partition::Subgraph& sub = dg.subgraph(m);
    CcMachine& me = state[m];
    me.lab.assign(sub.global_id.begin(),
                  sub.global_id.begin() + sub.num_local);
    std::vector<graph::VertexId> ghost_init(
        sub.global_id.begin() + sub.num_local, sub.global_id.end());
    me.ghosts.reset(std::move(ghost_init), n);
    me.frontier.resize(sub.num_local);
    for (graph::VertexId v = 0; v < sub.num_local; ++v) me.frontier[v] = v;
    me.in_frontier.assign(sub.num_local, 1);
    me.in_next.assign(sub.num_local, 0);
    me.master_marked.assign(sub.num_local, 0);
    me.ex = std::make_unique<exec::Executor>(exec_threads);
    me.dense_plan = exec::ChunkScheduler::over_range(
        sub.local.out_offsets(), 0, sub.num_local, chunk_edges);
    for (graph::VertexId v = 0; v < sub.num_local; ++v)
      me.dense_work += sub.local.out_degree(v) + sub.local.in_degree(v);
  }

  // Sparse/dense switch: machines report the edge mass of their next
  // frontier; the barrier completion picks the scan mode for the next
  // superstep. Both edge directions relax, hence the 2|E| denominator.
  const std::uint64_t total_edge_mass = 2 * g.num_edges();
  std::atomic<std::uint64_t> next_edge_mass{total_edge_mass};
  std::atomic<FrontierMode> mode{FrontierMode::kDense};

  RuntimeConfig rcfg;
  rcfg.threads = opts.threads;
  rcfg.max_supersteps = max_supersteps;
  rcfg.on_barrier = [&](std::size_t) {
    const std::uint64_t mass =
        next_edge_mass.exchange(0, std::memory_order_relaxed);
    obs::trace_counter("timeline/frontier_edge_mass",
                       static_cast<double>(mass));
    mode.store(choose_frontier_mode(mass, total_edge_mass),
               std::memory_order_relaxed);
  };

  RunResult run = Runtime<LabelMsg>::run(
      machines, rcfg, [&](Runtime<LabelMsg>::Context& ctx, std::size_t) {
        CcMachine& me = state[ctx.self()];
        const partition::Subgraph& sub = dg.subgraph(ctx.self());
        const graph::VertexId num_local = sub.num_local;

        auto activate_now = [&](graph::VertexId v) {
          if (!me.in_frontier[v]) {
            me.in_frontier[v] = 1;
            me.frontier.push_back(v);
          }
        };
        auto activate_next = [&](graph::VertexId v) {
          if (!me.in_next[v]) {
            me.in_next[v] = 1;
            me.next.push_back(v);
          }
        };
        auto mark_master = [&](graph::VertexId v) {
          if (!me.master_marked[v] && !dg.mirror_holders(ctx.self(), v).empty()) {
            me.master_marked[v] = 1;
            me.changed_masters.push_back(v);
          }
        };

        ctx.for_each_message([&](const LabelMsg& msg) {
          if (dg.owner(msg.vertex) == ctx.self()) {
            // Mirror -> master: an aggregated ghost-slot flush.
            const graph::VertexId l = dg.owner_local(msg.vertex);
            if (msg.label < me.lab[l]) {
              me.lab[l] = msg.label;
              activate_now(l);
              mark_master(l);
            }
          } else {
            // Master -> mirror broadcast: refresh the cached ghost label
            // and relax the local edges pointing at the ghost.
            const graph::VertexId gi = dg.ghost_index(ctx.self(), msg.vertex);
            if (me.ghosts.refresh_min(gi, msg.label)) {
              const graph::VertexId gv = me.ghosts.value(gi);
              for (graph::VertexId u :
                   sub.local.in_neighbors(num_local + gi)) {
                if (gv < me.lab[u]) {
                  me.lab[u] = gv;
                  activate_now(u);
                  mark_master(u);
                }
              }
            }
          }
        });

        const FrontierMode scan_mode = mode.load(std::memory_order_relaxed);
        const std::size_t domain =
            static_cast<std::size_t>(num_local) + sub.num_ghosts;
        me.shards.reset(me.ex->threads(), domain);
        // Frozen closed-neighborhood minimum of u, offered to every
        // neighbor (and u itself) through the min-shards.
        auto scan_vertex = [&](unsigned w, graph::VertexId u) {
          graph::VertexId lu = me.lab[u];
          const auto out = sub.local.out_neighbors(u);
          const auto in = sub.local.in_neighbors(u);
          for (graph::VertexId t : out) {
            const graph::VertexId val =
                t < num_local ? me.lab[t] : me.ghosts.value(t - num_local);
            if (val < lu) lu = val;
          }
          for (graph::VertexId t : in)
            if (me.lab[t] < lu) lu = me.lab[t];
          for (graph::VertexId t : out) {
            if (t < num_local) {
              if (lu < me.lab[t]) me.shards.combine_min(w, t, lu);
            } else if (lu < me.ghosts.value(t - num_local)) {
              me.shards.combine_min(w, t, lu);  // t == num_local + ghost
            }
          }
          for (graph::VertexId t : in)
            if (lu < me.lab[t]) me.shards.combine_min(w, t, lu);
          if (lu < me.lab[u]) me.shards.combine_min(w, u, lu);
        };
        if (scan_mode == FrontierMode::kDense) {
          me.ex->run(me.dense_plan,
                     [&](unsigned w, std::uint32_t, graph::VertexId lo,
                         graph::VertexId hi) {
                       for (graph::VertexId u = lo; u < hi; ++u)
                         scan_vertex(w, u);
                     });
          ctx.add_work(me.dense_work);
        } else {
          std::uint64_t scan_work = 0;
          for (graph::VertexId u : me.frontier)
            scan_work += sub.local.out_degree(u) + sub.local.in_degree(u);
          const auto plan = exec::ChunkScheduler::over_list(
              me.frontier.size(),
              [&](std::size_t i) {
                return sub.local.out_degree(me.frontier[i]) +
                       sub.local.in_degree(me.frontier[i]);
              },
              chunk_edges);
          me.ex->run(plan, [&](unsigned w, std::uint32_t, std::uint32_t lo,
                               std::uint32_t hi) {
            for (std::uint32_t i = lo; i < hi; ++i)
              scan_vertex(w, me.frontier[i]);
          });
          ctx.add_work(scan_work);
        }
        me.shards.merge([&](std::size_t i, graph::VertexId val) {
          if (i < num_local) {
            const auto u = static_cast<graph::VertexId>(i);
            if (val < me.lab[u]) {
              me.lab[u] = val;
              activate_next(u);
              mark_master(u);
            }
          } else {
            me.ghosts.combine_min(static_cast<graph::VertexId>(i - num_local),
                                  val);
          }
        });

        ctx.mark_comm();
        me.ghosts.flush(
            [&](graph::VertexId ghost, graph::VertexId label) {
              ctx.send(sub.ghost_owner[ghost],
                       LabelMsg{sub.global_id[num_local + ghost], label});
            },
            /*keep_values=*/true);
        for (graph::VertexId u : me.changed_masters) {
          me.master_marked[u] = 0;
          for (MachineId holder : dg.mirror_holders(ctx.self(), u))
            ctx.send(holder, LabelMsg{sub.global_id[u], me.lab[u]});
        }
        me.changed_masters.clear();

        // Swap frontiers and report next round's edge mass for the
        // sparse/dense decision.
        for (graph::VertexId u : me.frontier) me.in_frontier[u] = 0;
        me.frontier.clear();
        me.frontier.swap(me.next);
        me.in_frontier.swap(me.in_next);
        std::uint64_t mass = 0;
        for (graph::VertexId u : me.frontier)
          mass += sub.local.out_degree(u) + sub.local.in_degree(u);
        if (mass != 0)
          next_edge_mass.fetch_add(mass, std::memory_order_relaxed);
        return me.frontier.empty() ? Vote::kHalt : Vote::kContinue;
      });

  engine::ComponentsResult result;
  result.label.assign(n, 0);
  for (MachineId m = 0; m < machines; ++m) {
    const partition::Subgraph& sub = dg.subgraph(m);
    for (graph::VertexId v = 0; v < sub.num_local; ++v)
      result.label[sub.global_id[v]] = state[m].lab[v];
  }
  // Dense count: labels are vertex ids, so a byte-map replaces a hash set.
  std::vector<std::uint8_t> seen(n, 0);
  graph::VertexId num_components = 0;
  for (const graph::VertexId l : result.label)
    if (seen[l] == 0) {
      seen[l] = 1;
      ++num_components;
    }
  result.num_components = num_components;
  result.run = std::move(run.report);
  return result;
}

}  // namespace bpart::dist
