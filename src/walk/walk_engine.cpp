#include "walk/walk_engine.hpp"

#include <utility>

#include "exec/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace bpart::walk {

namespace {

/// Walker materialization: walks_per_vertex per start vertex, round-major
/// in vertex order (the KnightKing initialization), an explicit source list
/// overriding the every-vertex default. Walker i's identity — the key of
/// its RNG streams — is its index in this order.
std::vector<WalkerState> materialize_walkers(const graph::Graph& g,
                                             const WalkConfig& cfg,
                                             WalkReport& report) {
  const graph::VertexId n = g.num_vertices();
  const std::uint64_t starts = cfg.sources.empty() ? n : cfg.sources.size();
  std::vector<WalkerState> walkers;
  walkers.reserve(starts * cfg.walks_per_vertex);
  for (unsigned r = 0; r < cfg.walks_per_vertex; ++r) {
    for (std::uint64_t i = 0; i < starts; ++i) {
      const graph::VertexId v = cfg.sources.empty()
                                    ? static_cast<graph::VertexId>(i)
                                    : cfg.sources[i];
      BPART_CHECK_MSG(v < n, "walk source " << v << " outside the graph");
      WalkerState w;
      w.source = v;
      w.current = v;
      walkers.push_back(w);
      ++report.visits[v];
    }
  }
  if (cfg.record_paths) {
    report.paths.resize(walkers.size());
    for (std::size_t i = 0; i < walkers.size(); ++i)
      report.paths[i].push_back(walkers[i].current);
  }
  return walkers;
}

/// Walker batches over the chunk scheduler, keyed RNG streams, per-worker
/// tallies and visit counts merged on the calling thread. Bitwise identical
/// for every thread count and chunk size — trajectories are pure functions
/// of (seed, walker, step), and every accumulator is an integer sum.
void step_walkers(const graph::Graph& g, const partition::Partition& parts,
                  const WalkApp& app, const WalkConfig& cfg, unsigned threads,
                  cluster::BspSimulation& sim,
                  std::vector<WalkerState>& walkers, WalkReport& report) {
  const graph::VertexId n = g.num_vertices();
  const cluster::MachineId machines = parts.num_parts();
  const std::uint64_t num_walkers = walkers.size();
  std::vector<std::uint8_t> alive(num_walkers, 1);

  exec::Executor ex(threads);
  const unsigned workers = ex.threads();
  // Walker batches carry no per-item weight (a walker's remaining steps are
  // unknowable), so chunk small enough that stealing can smooth out skew:
  // 1/16th of the edge-chunk target, >= 1.
  const std::uint32_t batch =
      std::max<std::uint32_t>(1, cfg.exec.chunk_edges / 16);

  // Per-worker iteration tallies: step attempts per machine, shipped
  // walkers per (src, dst) pair, plus scalar counts. Integer sums are
  // order-independent, so merging per worker keeps the accounting
  // bit-identical to any other schedule.
  struct Tally {
    std::vector<std::uint64_t> work;  // per machine: step attempts
    std::vector<std::uint64_t> msgs;  // machines x machines, row-major
    std::uint64_t steps = 0;
  };
  std::vector<Tally> tally(workers);
  for (Tally& t : tally) {
    t.work.assign(machines, 0);
    t.msgs.assign(static_cast<std::size_t>(machines) * machines, 0);
  }
  // Visit counts per worker, summed into the report after the last
  // iteration; worker 0 counts straight into the report.
  std::vector<std::vector<std::uint64_t>> extra_visits(
      workers - 1, std::vector<std::uint64_t>(n, 0));
  std::vector<std::uint64_t*> visits(workers, report.visits.data());
  for (unsigned w = 1; w < workers; ++w) visits[w] = extra_visits[w - 1].data();

  // Alive walker indices, ascending; rebuilt serially after each iteration
  // so the chunk plan of iteration k is a pure function of the surviving
  // set (never of the schedule that produced it).
  std::vector<std::uint32_t> active_ids(num_walkers);
  for (std::uint64_t i = 0; i < num_walkers; ++i)
    active_ids[i] = static_cast<std::uint32_t>(i);

  for (unsigned iter = 0;
       iter < cfg.max_iterations && !active_ids.empty(); ++iter) {
    BPART_SPAN("walk/iteration", "active",
               static_cast<double>(active_ids.size()));
    sim.begin_iteration();
    for (Tally& t : tally) {
      std::fill(t.work.begin(), t.work.end(), 0);
      std::fill(t.msgs.begin(), t.msgs.end(), 0);
      t.steps = 0;
    }

    const auto plan = exec::ChunkScheduler::over_items(active_ids.size(),
                                                       batch);
    ex.run(plan, [&](unsigned w, std::uint32_t, std::uint32_t lo,
                     std::uint32_t hi) {
      Tally& t = tally[w];
      for (std::uint32_t idx = lo; idx < hi; ++idx) {
        const std::uint32_t i = active_ids[idx];
        WalkerState& wk = walkers[i];
#if BPART_SIMD_ENABLED
        // Bounded-draw batching: derive the stream heads of the walker's
        // next kBatch steps in one vectorizable pass (the per-step key
        // derivation is the hot loop's serial dependency). Every
        // non-terminating step advances steps_taken by exactly one, so
        // batch entry j always corresponds to counter steps_taken_at_refill
        // + j; leftovers are discarded when the walker ships or dies.
        // The draws are bit-identical to the scalar construction
        // (CounterRng::first_draws contract), so trajectories are unchanged.
        constexpr std::size_t kBatch = 4;
        std::uint64_t batch_draw[kBatch];
        std::uint64_t batch_state[kBatch];
        std::size_t batch_pos = kBatch;
#endif
        for (;;) {
          // Greedy compute phase: each step attempt is one unit of load on
          // the machine hosting the walker, which keeps advancing it until
          // it stops or leaves (one step per iteration without greedy_local).
          const cluster::MachineId here = parts[wk.current];
          ++t.work[here];
          // Each step() call of walker i is uniquely indexed by its
          // steps_taken value, so the keyed stream never repeats.
#if BPART_SIMD_ENABLED
          if (batch_pos == kBatch) {
            CounterRng::first_draws(cfg.seed, i, wk.steps_taken, kBatch,
                                    batch_draw, batch_state);
            batch_pos = 0;
          }
          StepRng rng = StepRng::with_first_draw(batch_draw[batch_pos],
                                                 batch_state[batch_pos]);
          ++batch_pos;
#else
          StepRng rng(cfg.seed, i, wk.steps_taken);
#endif
          const StepDecision d = app.step(wk, g, rng);
          if (d.terminate) {
            alive[i] = 0;
            break;
          }
          BPART_CHECK_MSG(d.next < n, "walk app stepped outside the graph");
          const cluster::MachineId there = parts[d.next];
          wk.previous = wk.current;
          wk.current = d.next;
          ++wk.steps_taken;
          ++t.steps;
          ++visits[w][d.next];
          if (cfg.record_paths) report.paths[i].push_back(d.next);
          if (there != here) {
            ++t.msgs[static_cast<std::size_t>(here) * machines + there];
            break;  // shipped: resumes on `there` next iteration
          }
          if (!cfg.greedy_local) break;
        }
      }
    });

    // Fixed-order merges on the calling thread.
    for (const Tally& t : tally) {
      report.total_steps += t.steps;
      for (cluster::MachineId m = 0; m < machines; ++m)
        if (t.work[m] != 0) sim.add_work(m, t.work[m]);
      for (cluster::MachineId src = 0; src < machines; ++src)
        for (cluster::MachineId dst = 0; dst < machines; ++dst) {
          const std::uint64_t c =
              t.msgs[static_cast<std::size_t>(src) * machines + dst];
          if (c != 0) {
            sim.add_message(src, dst, c);
            report.message_walks += c;
          }
        }
    }
    sim.end_iteration();

    // Compact the survivors, preserving ascending walker order.
    std::size_t kept = 0;
    for (const std::uint32_t i : active_ids)
      if (alive[i]) active_ids[kept++] = i;
    active_ids.resize(kept);
  }
  for (const auto& counts : extra_visits)
    for (graph::VertexId v = 0; v < n; ++v) report.visits[v] += counts[v];
}

}  // namespace

WalkReport run_walks(const graph::Graph& g, const partition::Partition& parts,
                     const WalkApp& app, const WalkConfig& cfg,
                     cluster::CostModel model) {
  BPART_CHECK_MSG(g.num_vertices() == parts.num_vertices(),
                  "graph/partition size mismatch");
  BPART_CHECK_MSG(parts.fully_assigned(),
                  "walk engine requires a fully assigned partition");
  BPART_CHECK(cfg.walks_per_vertex >= 1);

  cluster::BspSimulation sim(parts.num_parts(), model);
  WalkReport report;
  report.visits.assign(g.num_vertices(), 0);
  std::vector<WalkerState> walkers = materialize_walkers(g, cfg, report);

  const unsigned threads = cfg.exec.resolved_threads();
  BPART_SPAN("walk/run", "walkers", static_cast<double>(walkers.size()),
             "threads", static_cast<double>(threads));
  step_walkers(g, parts, app, cfg, threads, sim, walkers, report);

  obs::counter("walk.steps").add(report.total_steps);
  obs::counter("walk.message_walks").add(report.message_walks);
  report.run = sim.finish();
  return report;
}

}  // namespace bpart::walk
