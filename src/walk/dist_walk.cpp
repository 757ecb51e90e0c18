#include "walk/dist_walk.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <utility>

#include "dist/runtime.hpp"
#include "exec/scheduler.hpp"
#include "exec/simd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bpart::walk {

namespace {

/// Walkers a chunk keeps in flight. A step is two dependent loads (the
/// vertex's offsets, then the drawn target); advancing a group round-robin
/// overlaps those misses across walkers instead of waiting out each one.
/// On the perfbench walk input widths 8 to 64 sit on one plateau, 4 is
/// ~20% slower and one walker at a time ~2.5x slower (DESIGN.md §13).
constexpr unsigned kInFlight = 16;

struct Walker {
  std::uint64_t id;
  std::uint32_t steps;
  graph::VertexId at;
};

/// One outgoing shipment: destination machine plus the walker in transit.
struct Outgoing {
  cluster::MachineId dst;
  Walker w;
};

struct WalkMachine {
  std::vector<Walker> queue;  // walkers currently on this machine
  std::uint64_t total_steps = 0;
  std::uint64_t message_walks = 0;
  // Per-machine executor plus per-chunk outgoing buffers and step tallies,
  // merged in chunk order after each superstep's run.
  std::unique_ptr<exec::Executor> ex;
  std::vector<std::vector<Outgoing>> chunk_out;
  std::vector<std::uint64_t> chunk_steps;
};

/// Advances one chunk of machine `self`'s queued walkers over the global
/// CSR until each finishes, dead-ends or crosses to a vertex another
/// machine owns (reported through `ship`), and returns the steps taken. Up
/// to kInFlight walkers are in flight, advanced round-robin in two stages:
/// stage A reads the vertex's offsets (prefetched when the walker arrived
/// there), draws, and prefetches the drawn target slot; stage B reads the
/// target, counts the step, then ships, finishes or moves the walker and
/// prefetches the new vertex's offsets. A freed slot refills from the
/// chunk's next queued walker. Draws are keyed on (seed, walker id, step),
/// and shipments leave in the group's completion order, which depends only
/// on the chunk's walkers — not on the machine or worker thread running it.
template <typename ShipFn>
std::uint64_t advance_chunk(std::span<const Walker> walkers,
                            const graph::Graph& g,
                            const partition::Partition& parts,
                            cluster::MachineId self,
                            const ThreadedWalkConfig& cfg, ShipFn&& ship) {
  // Stage marker: a slot whose draw is kUndrawn is in stage A.
  constexpr graph::EdgeId kUndrawn = ~graph::EdgeId{0};
  struct Slot {
    Walker w;
    graph::EdgeId drawn;  // target slot drawn in stage A
  };
  const auto offsets = g.out_offsets();
  const auto targets = g.out_targets();
  const auto owner = parts.assignment();

  std::array<Slot, kInFlight> group{};
  std::size_t next = 0;
  // Seats the chunk's next walker with steps left in `slot`; false once
  // the chunk has no walker left to seat.
  auto admit = [&](Slot& slot) {
    while (next < walkers.size()) {
      const Walker& w = walkers[next++];
      BPART_DCHECK(owner[w.at] == self);
      if (w.steps >= cfg.length) continue;  // arrived on its last step
      exec::simd::prefetch_read(&offsets[w.at]);
      slot = Slot{w, kUndrawn};
      return true;
    }
    return false;
  };
  unsigned live = 0;
  while (live < kInFlight && admit(group[live])) ++live;

  std::uint64_t steps = 0;
  while (live > 0) {
    for (unsigned i = 0; i < live;) {
      Slot& s = group[i];
      bool done = false;
      if (s.drawn == kUndrawn) {
        const graph::EdgeId begin = offsets[s.w.at];
        const graph::EdgeId degree = offsets[s.w.at + 1] - begin;
        if (degree == 0) {
          done = true;
        } else {
          CounterRng rng(cfg.seed, s.w.id, s.w.steps);
          s.drawn = begin + rng.bounded(degree);
          exec::simd::prefetch_read(&targets[s.drawn]);
        }
      } else {
        const graph::VertexId to = targets[s.drawn];
        s.drawn = kUndrawn;
        ++s.w.steps;
        ++steps;
        if (owner[to] != self) {
          ship(owner[to], Walker{s.w.id, s.w.steps, to});
          done = true;
        } else if (s.w.steps >= cfg.length) {
          done = true;
        } else {
          s.w.at = to;
          exec::simd::prefetch_read(&offsets[to]);
        }
      }
      if (!done || admit(s)) {
        ++i;
      } else {
        s = group[--live];  // the moved walker takes its turn at slot i
      }
    }
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

  const std::vector<std::uint64_t> owned = parts.vertex_counts();
  std::vector<WalkMachine> state(machines);
  const unsigned exec_threads = cfg.exec.resolved_threads();
  // Initial walkers and executor are built on the worker thread that drives
  // the machine. Walkers queue by round, then owned vertex id — the order of
  // a global scan over (round, vertex).
  auto init_machine = [&](cluster::MachineId m) {
    WalkMachine& me = state[m];
    me.queue.reserve(static_cast<std::size_t>(cfg.walks_per_vertex) *
                     owned[m]);
    for (unsigned r = 0; r < cfg.walks_per_vertex; ++r)
      for (graph::VertexId v = 0; v < n; ++v)
        if (parts[v] == m)
          me.queue.push_back(
              Walker{static_cast<std::uint64_t>(r) * n + v, 0, v});
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
        ctx.for_each_message([&](const Walker& w) { me.queue.push_back(w); });

        // Chunk the queue and buffer shipments per chunk; chunks are
        // contiguous slices of the queue and each appends its shipments in
        // an order fixed by its walkers, so flushing the buffers in chunk
        // order gives the channel the same content order whatever worker
        // ran each chunk.
        const auto plan =
            exec::ChunkScheduler::over_items(me.queue.size(), batch);
        me.chunk_out.assign(plan.num_chunks(), {});
        me.chunk_steps.assign(plan.num_chunks(), 0);
        me.ex->run(plan, [&](unsigned, std::uint32_t c, std::uint32_t lo,
                             std::uint32_t hi) {
          auto& out = me.chunk_out[c];
          me.chunk_steps[c] = advance_chunk(
              std::span<const Walker>(me.queue).subspan(lo, hi - lo), g,
              parts, ctx.self(), cfg,
              [&](cluster::MachineId dst, Walker shipped) {
                out.push_back(Outgoing{dst, shipped});
              });
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
