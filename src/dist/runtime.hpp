// Shared-memory distributed execution runtime (a mini-Gemini).
//
// Each partition is owned by a simulated "machine"; worker threads drive the
// machines through BSP supersteps with real barriers and the typed batched
// channels of channel.hpp. Unlike cluster::BspSimulation (which *models*
// time from counted work), this runtime *measures* it: per machine and per
// superstep it records wall-clock compute time, time blocked at the barrier,
// and message/byte traffic, and surfaces them through the same
// cluster::IterationReport / RunReport shapes the cost model fills — so
// measured and simulated results plot on the same axes (bench
// ext_dist_runtime, fig13).
//
// Threading: util::thread_count(machines) OS threads each drive a
// contiguous block of machines (BPART_THREADS=2 runs an 8-machine topology
// serialized two ways, with identical results). The barrier's completion
// phase — running on the last thread to arrive, all others parked — flips
// the channel, assembles the superstep's report row, and decides
// termination: all machines voted halt and no message is in flight.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <latch>
#include <thread>
#include <vector>

#include "cluster/bsp.hpp"
#include "dist/channel.hpp"
#include "exec/exec_config.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace bpart::dist {

enum class Vote : std::uint8_t { kHalt, kContinue };

/// Knobs shared by every dist:: application entry point.
struct DistOptions {
  /// OS worker threads; 0 = util::thread_count(machines), i.e. up to one
  /// per machine, capped by BPART_THREADS / hardware concurrency.
  unsigned threads = 0;
  /// Intra-machine parallelism for each machine's per-superstep compute
  /// (src/exec/); results do not depend on it.
  exec::ExecConfig exec;
};

/// Gemini's sparse/dense (push/pull) switch: go dense once the active
/// frontier covers more than 1/20 of the edges.
enum class FrontierMode : std::uint8_t { kSparse, kDense };
[[nodiscard]] inline FrontierMode choose_frontier_mode(
    std::uint64_t active_edges, std::uint64_t total_edges) {
  return active_edges * 20 > total_edges ? FrontierMode::kDense
                                         : FrontierMode::kSparse;
}

/// OS worker threads for `machines` machines: `threads` capped at the
/// machine count, or util::thread_count(machines) when 0. Runtime::run and
/// the DistGraph loader both size themselves by it.
[[nodiscard]] inline unsigned resolve_threads(unsigned threads,
                                              MachineId machines) {
  return threads != 0 ? std::min<unsigned>(threads, machines)
                      : thread_count(machines);
}

struct RuntimeConfig {
  std::size_t max_supersteps = std::size_t{1} << 20;
  unsigned threads = 0;  ///< 0 = util::thread_count(machines).
  /// Runs in the barrier's completion phase after superstep `s` (1-based
  /// count of completed supersteps), all machine threads parked: the safe
  /// place for global decisions (frontier mode, convergence checks).
  std::function<void(std::size_t)> on_barrier;
  /// Parallel per-machine set-up: runs once per machine, on the worker
  /// thread that will drive that machine through every superstep, before
  /// superstep 0, so the machines' state is built concurrently instead of
  /// on the caller. Dist PageRank and the dist walk build their per-machine
  /// vectors, plans and executors here. Optional; the result must not
  /// depend on which thread runs it.
  std::function<void(MachineId)> init_machine;
};

struct RunResult {
  cluster::RunReport report;  ///< MEASURED seconds/bytes, not modeled.
  std::size_t supersteps = 0;
};

template <typename Msg>
class Runtime {
 public:
  /// Per-machine handle passed to the step function.
  class Context {
   public:
    [[nodiscard]] MachineId self() const { return self_; }
    [[nodiscard]] MachineId num_machines() const {
      return channel_->num_machines();
    }

    void send(MachineId dst, const Msg& m) {
      channel_->send(self_, dst, m);
      if (dst != self_) ++sent_;  // local delivery is a memory write
    }

    /// Visit every message delivered this superstep.
    template <typename F>
    void for_each_message(F&& f) const {
      channel_->drain(self_, f);
    }

    /// Report app-level work items (edges relaxed, walk steps) so measured
    /// runs stay comparable with the cost model's counted work.
    void add_work(std::uint64_t items) { work_ += items; }

    /// Marks the compute → communicate transition: time before the mark is
    /// reported as compute_seconds, after it as comm_seconds. Optional —
    /// without it the whole step counts as compute.
    void mark_comm() { comm_mark_ = step_timer_->seconds(); }

   private:
    friend class Runtime;
    Context(MachineId self, Channel<Msg>* channel)
        : self_(self), channel_(channel) {}

    MachineId self_;
    Channel<Msg>* channel_;
    const Timer* step_timer_ = nullptr;
    std::uint64_t work_ = 0;
    std::uint64_t sent_ = 0;
    double comm_mark_ = -1;
  };

  /// Runs `step(ctx, superstep)` for every machine until global quiescence
  /// (all machines vote kHalt and no message is in flight) or
  /// cfg.max_supersteps.
  template <typename Step>
  static RunResult run(MachineId machines, const RuntimeConfig& cfg,
                       Step&& step) {
    BPART_CHECK(machines >= 1);
    const unsigned workers = resolve_threads(cfg.threads, machines);
    const MachineId per = machines / workers;
    const MachineId extra = machines % workers;
    auto range_begin = [per, extra](unsigned t) {
      return static_cast<MachineId>(t * per + std::min<MachineId>(t, extra));
    };

    Channel<Msg> channel(machines);
    std::vector<Context> ctx;
    ctx.reserve(machines);
    for (MachineId m = 0; m < machines; ++m)
      ctx.push_back(Context(m, &channel));

    // Per-machine per-superstep measurements, cache-line padded: each entry
    // is written by the machine's thread during compute and harvested by
    // the barrier completion.
    struct alignas(kCacheLine) Scratch {
      double compute = 0;
      double comm = 0;
      std::uint64_t work = 0;
      std::uint64_t sent = 0;
      std::uint64_t received = 0;
    };
    std::vector<Scratch> scratch(machines);

    RunResult result;
    result.report.num_machines = machines;
    auto& iterations = result.report.iterations;

    std::atomic<std::uint32_t> continue_votes{0};
    std::atomic<bool> done{false};
    Timer iter_timer;

    // Timeline side records, filled in the completion phase only when
    // $BPART_TIMELINE is on (tl_run != 0): per-superstep gating machine
    // (argmax compute — the straggler the barrier waited for) and the
    // machines² per-channel byte matrix, harvested pre-flip. Committed
    // after join, once the workers have back-filled wait_seconds.
    const std::uint64_t tl_run = obs::timeline_begin_run(machines);
    std::vector<std::uint32_t> tl_gating;
    std::vector<std::vector<std::uint64_t>> tl_channel_bytes;
    // Flow ids chain consecutive barrier completions in the Perfetto UI
    // (they run on whichever thread arrived last). One id block per run.
    static std::atomic<std::uint64_t> g_flow_seq{1};
    const std::uint64_t flow_base =
        obs::trace_enabled()
            ? g_flow_seq.fetch_add(1, std::memory_order_relaxed) << 32
            : 0;

    // Completion phase: flip the channel, turn the scratch measurements
    // into an IterationReport row, decide termination. wait_seconds stays 0
    // here — each thread fills in its measured barrier wait right after
    // release (safe: the row isn't touched again until every thread has
    // re-arrived).
    auto on_sync = [&]() noexcept {
      // Per-channel traffic matrix must be harvested pre-flip, while this
      // superstep's sends still sit in the write buffers.
      if (tl_run != 0) {
        std::vector<std::uint64_t> mat(static_cast<std::size_t>(machines) *
                                       machines);
        for (MachineId src = 0; src < machines; ++src)
          for (MachineId dst = 0; dst < machines; ++dst)
            mat[static_cast<std::size_t>(src) * machines + dst] =
                channel.pending_count(src, dst) * sizeof(Msg);
        tl_channel_bytes.push_back(std::move(mat));
      }
      const std::uint64_t in_flight = channel.flip();
      obs::counter("dist.supersteps").add(1);
      if (in_flight != 0) obs::counter("dist.messages_delivered").add(in_flight);
      cluster::IterationReport it;
      it.machines.resize(machines);
      MachineId gating = 0;
      std::uint64_t bytes_sent = 0;
      for (MachineId m = 0; m < machines; ++m) {
        auto& row = it.machines[m];
        Scratch& sc = scratch[m];
        row.work_items = sc.work;
        row.messages_sent = sc.sent;
        row.messages_received = sc.received;
        row.bytes_sent = sc.sent * sizeof(Msg);
        row.bytes_received = sc.received * sizeof(Msg);
        row.compute_seconds = sc.compute;
        row.comm_seconds = sc.comm;
        if (sc.compute > it.machines[gating].compute_seconds) gating = m;
        bytes_sent += row.bytes_sent;
        sc = Scratch{};
      }
      if (tl_run != 0) tl_gating.push_back(gating);
      if (obs::trace_enabled()) {
        obs::trace_counter("timeline/bytes_superstep",
                           static_cast<double>(bytes_sent));
        obs::trace_counter("timeline/messages_in_flight",
                           static_cast<double>(in_flight));
        // Chain this completion to the previous one (same id closes the
        // arrow opened last superstep).
        if (result.supersteps > 0)
          obs::trace_flow("timeline/superstep_chain",
                          flow_base + result.supersteps - 1, false);
        obs::trace_flow("timeline/superstep_chain",
                        flow_base + result.supersteps, true);
      }
      it.duration_seconds = iter_timer.seconds();
      iter_timer.reset();
      iterations.push_back(std::move(it));
      ++result.supersteps;
      if ((continue_votes.load(std::memory_order_relaxed) == 0 &&
           in_flight == 0) ||
          result.supersteps >= cfg.max_supersteps)
        done.store(true, std::memory_order_relaxed);
      continue_votes.store(0, std::memory_order_relaxed);
      if (cfg.on_barrier) cfg.on_barrier(result.supersteps);
    };
    std::barrier barrier(static_cast<std::ptrdiff_t>(workers), on_sync);
    std::latch init_gate(static_cast<std::ptrdiff_t>(workers));

    auto worker = [&](unsigned t) {
      const MachineId lo = range_begin(t);
      const MachineId hi = range_begin(t + 1);
      // Set-up pass: each worker initializes exactly the machines it will
      // drive, before any superstep runs anywhere. Synchronized on its own
      // latch (not the superstep barrier, whose completion phase would
      // count a phantom superstep), which also orders the state writes
      // before any cross-thread reads.
      if (cfg.init_machine) {
        for (MachineId m = lo; m < hi; ++m) cfg.init_machine(m);
        init_gate.arrive_and_wait();
      }
      // Per-worker phase accounting; AccumTimer is single-thread-owned, so
      // each worker carries its own and publishes totals at shutdown.
      AccumTimer barrier_accum;
      for (std::size_t s = 0;; ++s) {
        std::uint32_t my_continues = 0;
        for (MachineId m = lo; m < hi; ++m) {
          BPART_SPAN("superstep/compute", "machine", static_cast<double>(m),
                     "superstep", static_cast<double>(s));
          Context& c = ctx[m];
          c.work_ = 0;
          c.sent_ = 0;
          c.comm_mark_ = -1;
          const std::uint64_t received = channel.incoming_count(m);
          Timer step_timer;
          c.step_timer_ = &step_timer;
          const Vote v = step(c, s);
          const double total = step_timer.seconds();
          Scratch& sc = scratch[m];
          sc.compute = c.comm_mark_ >= 0 ? c.comm_mark_ : total;
          sc.comm = c.comm_mark_ >= 0 ? total - c.comm_mark_ : 0.0;
          sc.work = c.work_;
          sc.sent = c.sent_;
          sc.received = received;
          if (v == Vote::kContinue) ++my_continues;
        }
        if (my_continues != 0)
          continue_votes.fetch_add(my_continues, std::memory_order_relaxed);
        Timer wait_timer;
        {
          BPART_SPAN("barrier/wait", "superstep", static_cast<double>(s));
          ScopedAccum accum(barrier_accum);
          barrier.arrive_and_wait();
        }
        // Attribute the measured barrier wait (straggler wait + completion
        // work) to this thread's machines on the row the completion just
        // pushed. The last thread to arrive measures ~the completion cost
        // alone — i.e. the slowest machine waits least, as it should.
        const double waited = wait_timer.seconds();
        auto& row = iterations.back();
        for (MachineId m = lo; m < hi; ++m) row.machines[m].wait_seconds = waited;
        if (done.load(std::memory_order_relaxed)) {
          obs::latency("dist.worker_barrier_wait").record_seconds(
              barrier_accum.seconds());
          return;
        }
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) threads.emplace_back(worker, t);
    for (auto& t : threads) t.join();
    if (tl_run != 0) {
      // Which worker thread drove which machine: the attribution pass
      // reconciles charged time per *worker*, so threads < machines (CI
      // runners) still sums to wall time.
      std::vector<std::uint32_t> machine_worker(machines);
      for (unsigned t = 0; t < workers; ++t)
        for (MachineId m = range_begin(t); m < range_begin(t + 1); ++m)
          machine_worker[m] = t;
      obs::timeline_commit_run(tl_run, result.report, tl_gating,
                               std::move(tl_channel_bytes), machine_worker);
    }
    return result;
  }
};

}  // namespace bpart::dist
