#include "walk/dist_walk.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "dist/dist_graph.hpp"
#include "dist/runtime.hpp"
#include "exec/scheduler.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bpart::walk {

namespace {

struct Walker {
  std::uint64_t id;
  std::uint32_t steps;
  graph::VertexId at;  // global id in transit, local id while queued
};

/// One outgoing shipment: destination machine plus the walker in transit.
struct Outgoing {
  cluster::MachineId dst;
  Walker w;
};

struct WalkMachine {
  std::vector<Walker> queue;  // walkers currently on this machine (local ids)
  std::vector<graph::EdgeId> rank;  // global_rank_table of the subgraph
  std::uint64_t total_steps = 0;
  std::uint64_t message_walks = 0;
  // Per-machine executor plus per-chunk outgoing buffers and step tallies,
  // merged in chunk order after each superstep's run.
  std::unique_ptr<exec::Executor> ex;
  std::vector<std::vector<Outgoing>> chunk_out;
  std::vector<std::uint64_t> chunk_steps;
};

/// Maps (owned local vertex, global-order draw index) -> local neighbor
/// slot. The subgraph CSR sorts each adjacency run by *local* id, which
/// pushes every ghost neighbor behind the owned ones; the counter-stream
/// contract needs draw index k to mean "k-th neighbor in global-id order",
/// exactly as the single-machine engines index the global CSR. Each run is
/// an owned half and a ghost half, both ascending by global id (local ids
/// of either kind are numbered in global order), so one linear merge per
/// run restores that order.
std::vector<graph::EdgeId> global_rank_table(const partition::Subgraph& sub) {
  std::vector<graph::EdgeId> rank(sub.local.num_edges());
  for (graph::VertexId lid = 0; lid < sub.num_local; ++lid) {
    const auto run = sub.local.out_neighbors(lid);
    const graph::EdgeId degree = run.size();
    const auto split = static_cast<graph::EdgeId>(
        std::lower_bound(run.begin(), run.end(), sub.num_local) - run.begin());
    graph::EdgeId* out = rank.data() + sub.local.out_offsets()[lid];
    graph::EdgeId a = 0;
    graph::EdgeId b = split;
    while (a < split && b < degree)
      *out++ = sub.global_id[run[a]] < sub.global_id[run[b]] ? a++ : b++;
    while (a < split) *out++ = a++;
    while (b < degree) *out++ = b++;
  }
  return rank;
}

/// Advances one queued walker greedily (counter streams keyed on
/// (seed, walker id, step)), reporting crossings through `ship` and
/// returning the steps taken. Identical draws whichever machine — or
/// worker thread — runs it.
template <typename ShipFn>
std::uint64_t advance_walker(const Walker& w, const partition::Subgraph& sub,
                             std::span<const graph::EdgeId> rank,
                             const ThreadedWalkConfig& cfg,
                             graph::VertexId num_local, ShipFn&& ship) {
  std::uint32_t taken = w.steps;
  graph::VertexId at = w.at;
  std::uint64_t steps = 0;
  while (taken < cfg.length) {
    const auto degree = sub.local.out_degree(at);
    if (degree == 0) break;
    CounterRng rng(cfg.seed, w.id, taken);
    const graph::VertexId next = sub.local.out_neighbor(
        at, rank[sub.local.out_offsets()[at] + rng.bounded(degree)]);
    ++taken;
    ++steps;
    if (next >= num_local) {
      const graph::VertexId ghost = next - num_local;
      ship(sub.ghost_owner[ghost],
           Walker{w.id, taken, sub.global_id[num_local + ghost]});
      break;
    }
    at = next;
  }
  return steps;
}

}  // namespace

DistWalkReport run_simple_walks_dist(const graph::Graph& g,
                                     const partition::Partition& parts,
                                     const ThreadedWalkConfig& cfg) {
  BPART_CHECK(g.num_vertices() == parts.num_vertices());
  BPART_CHECK(parts.fully_assigned());
  const graph::VertexId n = g.num_vertices();
  const cluster::MachineId machines = parts.num_parts();

  const dist::DistGraph dg(g, parts);
  std::vector<WalkMachine> state(machines);
  const unsigned exec_threads = cfg.exec.resolved_threads();
  // Rank table, initial walkers and executor are built on the worker thread
  // that drives the machine. Walkers queue by round, then owned local id —
  // the order of a global scan over (round, vertex).
  auto init_machine = [&](cluster::MachineId m) {
    const partition::Subgraph& sub = dg.subgraph(m);
    WalkMachine& me = state[m];
    me.rank = global_rank_table(sub);
    me.queue.reserve(static_cast<std::size_t>(cfg.walks_per_vertex) *
                     sub.num_local);
    for (unsigned r = 0; r < cfg.walks_per_vertex; ++r)
      for (graph::VertexId lid = 0; lid < sub.num_local; ++lid)
        me.queue.push_back(Walker{
            static_cast<std::uint64_t>(r) * n + sub.global_id[lid], 0, lid});
    me.ex = std::make_unique<exec::Executor>(exec_threads);
  };

  // Walker batches are weight-free (see run_walks): 1/16th of the
  // edge-chunk target, >= 1.
  const std::uint32_t batch =
      std::max<std::uint32_t>(1, cfg.exec.chunk_edges / 16);

  dist::RuntimeConfig rcfg;
  rcfg.max_supersteps = cfg.max_supersteps;
  rcfg.init_machine = init_machine;
  dist::RunResult run = dist::Runtime<Walker>::run(
      machines, rcfg, [&](dist::Runtime<Walker>::Context& ctx, std::size_t) {
        WalkMachine& me = state[ctx.self()];
        const partition::Subgraph& sub = dg.subgraph(ctx.self());
        const graph::VertexId num_local = sub.num_local;

        ctx.for_each_message([&](const Walker& w) {
          me.queue.push_back(Walker{w.id, w.steps, dg.owner_local(w.at)});
        });

        // Chunk the queue and buffer shipments per chunk; chunks are
        // contiguous slices of the queue, so flushing the buffers in chunk
        // order gives the channel the same content order whatever worker
        // ran each chunk.
        const auto plan =
            exec::ChunkScheduler::over_items(me.queue.size(), batch);
        me.chunk_out.assign(plan.num_chunks(), {});
        me.chunk_steps.assign(plan.num_chunks(), 0);
        me.ex->run(plan, [&](unsigned, std::uint32_t c, std::uint32_t lo,
                             std::uint32_t hi) {
          auto& out = me.chunk_out[c];
          std::uint64_t local_steps = 0;
          for (std::uint32_t i = lo; i < hi; ++i)
            local_steps += advance_walker(
                me.queue[i], sub, me.rank, cfg, num_local,
                [&](cluster::MachineId dst, Walker shipped) {
                  out.push_back(Outgoing{dst, shipped});
                });
          me.chunk_steps[c] = local_steps;
        });
        std::uint64_t steps = 0;
        for (std::size_t c = 0; c < me.chunk_out.size(); ++c) {
          steps += me.chunk_steps[c];
          for (const Outgoing& o : me.chunk_out[c]) {
            ctx.send(o.dst, o.w);
            ++me.message_walks;
          }
        }
        me.queue.clear();
        me.total_steps += steps;
        ctx.add_work(steps);
        return dist::Vote::kHalt;  // in-flight walkers keep the run alive
      });

  DistWalkReport report;
  for (const WalkMachine& m : state) {
    report.total_steps += m.total_steps;
    report.message_walks += m.message_walks;
  }
  report.supersteps = run.supersteps;
  report.run = std::move(run.report);
  return report;
}

}  // namespace bpart::walk
