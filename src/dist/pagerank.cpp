#include "dist/pagerank.hpp"

#include <limits>
#include <memory>
#include <utility>

#include "dist/dist_graph.hpp"
#include "dist/ghost_buffer.hpp"
#include "exec/edge_map.hpp"
#include "exec/scheduler.hpp"
#include "exec/simd.hpp"

namespace bpart::dist {

namespace {

// One aggregated contribution for a remote vertex, or (with the sentinel)
// a machine's dangling mass broadcast.
struct PrMsg {
  graph::VertexId vertex;
  double value;
};
constexpr graph::VertexId kDanglingSentinel =
    std::numeric_limits<graph::VertexId>::max();

// Per-machine state. The superstep is pull-shaped: shares and per-chunk
// dangling partials are computed over edge-balanced chunks, local mass is
// gathered per destination in CSR order at the next finalize
// (deterministic for any worker count), and only the precollected boundary
// edges scatter into ghost slots, sequentially.
struct PrMachine {
  std::vector<double> rank;   // owned local ids
  std::vector<double> acc;    // incoming contributions, owned local ids
  std::vector<double> share;  // rank/outdeg emitted this round
  GhostBuffer<double> ghosts;
  double dangling_local = 0;
  double dangling_received = 0;
  std::unique_ptr<exec::Executor> ex;
  exec::ChunkScheduler out_plan;  // owned range, out-edge balanced
  exec::ChunkScheduler in_plan;   // owned range, local-in-edge balanced
  // (source local id, ghost index) per boundary out-edge.
  std::vector<std::pair<graph::VertexId, graph::VertexId>> boundary;
  std::vector<double> chunk_dangling;
  std::uint64_t emit_work = 0;    // Σ max(out_degree, 1) over owned
  std::uint64_t gather_work = 0;  // Σ local in-degree over owned
};

}  // namespace

engine::PageRankResult pagerank(const graph::Graph& g,
                                const partition::Partition& parts,
                                const engine::PageRankConfig& cfg, PrMode,
                                const DistOptions& opts) {
  BPART_CHECK(g.num_vertices() == parts.num_vertices());
  BPART_CHECK(parts.fully_assigned());
  const graph::VertexId n = g.num_vertices();
  const MachineId machines = parts.num_parts();
  const double inv_n = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;

  const DistGraph dg(g, parts, opts.threads);
  std::vector<PrMachine> state(machines);

  const unsigned exec_threads = opts.exec.resolved_threads();
  // All per-machine state — rank/acc/share vectors, ghost slots, exec
  // plans, boundary lists — is built inside the runtime's init_machine
  // hook, i.e. on the worker thread that owns the machine for the whole
  // run, so the machines set up in parallel. The values written are
  // thread-independent.
  const std::uint32_t chunk_edges = opts.exec.chunk_edges;
  auto init_machine = [&](MachineId m) {
    const partition::Subgraph& sub = dg.subgraph(m);
    PrMachine& me = state[m];
    me.rank.assign(sub.num_local, inv_n);
    me.acc.assign(sub.num_local, 0.0);
    me.share.assign(sub.num_local, 0.0);
    me.ghosts.reset(sub.num_ghosts, 0.0);
    me.ex = std::make_unique<exec::Executor>(exec_threads);
    me.out_plan = exec::ChunkScheduler::over_range(
        sub.local.out_offsets(), 0, sub.num_local, chunk_edges);
    me.in_plan = exec::ChunkScheduler::over_range(
        sub.local.in_offsets(), 0, sub.num_local, chunk_edges);
    me.chunk_dangling.assign(me.out_plan.num_chunks(), 0.0);
    for (graph::VertexId v = 0; v < sub.num_local; ++v) {
      const auto degree = sub.local.out_degree(v);
      me.emit_work += degree == 0 ? 1 : degree;
      me.gather_work += sub.local.in_degree(v);
      for (graph::VertexId t : sub.local.out_neighbors(v))
        if (t >= sub.num_local)
          me.boundary.emplace_back(v, t - sub.num_local);
    }
  };

  // Protocol per superstep s (s = 0 .. iterations):
  //   1. drain: contributions and dangling shares emitted at s-1 complete
  //      round s-1's accumulation;
  //   2. if s > 0: finalize round s-1's ranks, gathering the local
  //      in-edges against the shares recorded at s-1;
  //   3. if s < iterations: emit round s — record shares, aggregate
  //      boundary contributions in ghost slots, flush one message per
  //      dirty ghost, broadcast dangling mass.
  // Superstep `iterations` only drains and finalizes.
  RuntimeConfig rcfg;
  rcfg.threads = opts.threads;
  rcfg.max_supersteps = cfg.iterations + 1;
  rcfg.init_machine = init_machine;
  RunResult run = Runtime<PrMsg>::run(
      machines, rcfg, [&](Runtime<PrMsg>::Context& ctx, std::size_t s) {
        PrMachine& me = state[ctx.self()];
        const partition::Subgraph& sub = dg.subgraph(ctx.self());
        const graph::VertexId num_local = sub.num_local;

        ctx.for_each_message([&](const PrMsg& msg) {
          if (msg.vertex == kDanglingSentinel)
            me.dangling_received += msg.value;
          else
            me.acc[dg.owner_local(msg.vertex)] += msg.value;
        });

        if (s > 0) {
          const double dangling = me.dangling_received + me.dangling_local;
          const double base =
              (1.0 - cfg.damping) * inv_n + cfg.damping * dangling * inv_n;
          // Gather local in-edges against last round's shares; remote
          // in-edge mass already arrived via the drained messages.
          exec::process_edges_pull(
              *me.ex, me.in_plan, sub.local.in_offsets(),
              sub.local.in_targets(),
              [&](unsigned, std::uint32_t, graph::VertexId v) {
                const double local_sum = exec::simd::gather_sum(
                    sub.local.in_neighbors(v), me.share.data());
                me.rank[v] = base + cfg.damping * (local_sum + me.acc[v]);
                me.acc[v] = 0.0;
              });
          ctx.add_work(me.gather_work);
          me.dangling_received = 0.0;
          me.dangling_local = 0.0;
        }

        if (s >= cfg.iterations) return Vote::kHalt;

        // Emit: shares and per-chunk dangling partials over edge-balanced
        // chunks; local mass waits for the next finalize. Boundary edges
        // scatter sequentially from the precollected list, in a fixed order.
        me.ex->run(me.out_plan,
                   [&](unsigned, std::uint32_t chunk, graph::VertexId lo,
                       graph::VertexId hi) {
                     double dangling = 0.0;
                     for (graph::VertexId v = lo; v < hi; ++v) {
                       const auto degree = sub.local.out_degree(v);
                       if (degree == 0) {
                         dangling += me.rank[v];
                         me.share[v] = 0.0;
                       } else {
                         me.share[v] = me.rank[v] / static_cast<double>(degree);
                       }
                     }
                     me.chunk_dangling[chunk] = dangling;
                   });
        for (const double d : me.chunk_dangling) me.dangling_local += d;
        for (const auto& [v, gi] : me.boundary) me.ghosts.add(gi, me.share[v]);
        ctx.add_work(me.emit_work);

        ctx.mark_comm();
        me.ghosts.flush([&](graph::VertexId ghost, double value) {
          ctx.send(sub.ghost_owner[ghost],
                   PrMsg{sub.global_id[num_local + ghost], value});
        });
        if (me.dangling_local != 0.0)
          for (MachineId m = 0; m < machines; ++m)
            if (m != ctx.self())
              ctx.send(m, PrMsg{kDanglingSentinel, me.dangling_local});
        return Vote::kContinue;
      });

  engine::PageRankResult result;
  result.rank.assign(n, 0.0);
  for (MachineId m = 0; m < machines; ++m) {
    const partition::Subgraph& sub = dg.subgraph(m);
    for (graph::VertexId v = 0; v < sub.num_local; ++v)
      result.rank[sub.global_id[v]] = state[m].rank[v];
  }
  result.run = std::move(run.report);
  return result;
}

}  // namespace bpart::dist
