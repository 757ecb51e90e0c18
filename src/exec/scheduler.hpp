// Chunked work-stealing scheduler — the execution heart of the exec core.
//
// A ChunkScheduler splits a vertex range (or a sparse active list) into
// chunks holding ~chunk_edges edges each, found by bisecting the CSR offset
// array, so a hub vertex and a thousand leaves cost a worker the same. The
// chunk boundaries depend only on the graph and the chunk size — never on
// the worker count — which is what lets per-chunk partial results merge in
// a fixed order and keep floating-point reductions bit-identical across
// thread counts (DESIGN.md §10).
//
// An Executor owns the worker threads (a util::ThreadPool of threads-1,
// the caller participates as worker 0) and serves chunks from per-worker
// cursors: each worker drains its contiguous share first, then steals from
// the busiest-looking victim in round-robin order — Gemini's fine-grained
// work-stealing, minus the NUMA tier. Steal and chunk counts are exported
// through obs::counter ("exec.chunks", "exec.steals") and every run opens
// a BPART_SPAN under the "exec" trace category.
//
// Exceptions thrown by the chunk function cancel the run (other workers
// stop taking chunks), propagate out of run(), and leave the Executor
// reusable.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bpart::exec {

class ChunkScheduler {
 public:
  /// [lo, hi) bounds of one chunk, in vertex-id space (over_range) or
  /// list-index space (over_list).
  using Range = std::pair<std::uint32_t, std::uint32_t>;

  ChunkScheduler() = default;

  /// Split the vertex range [lo, hi) into chunks of ~chunk_edges edges by
  /// bisecting `offsets` (a CSR offset array of length >= hi+1). A vertex
  /// heavier than chunk_edges gets a chunk of its own; zero-degree runs
  /// ride along with the preceding boundary.
  [[nodiscard]] static ChunkScheduler over_range(
      std::span<const graph::EdgeId> offsets, graph::VertexId lo,
      graph::VertexId hi, std::uint32_t chunk_edges);

  /// Split the index range [0, count) into equal-size chunks of
  /// items_per_chunk entries — the weight-free chunking mode for work whose
  /// per-item cost carries no useful static estimate (e.g. walker batches,
  /// where a walker's remaining steps are unknowable up front). Boundaries
  /// depend only on (count, items_per_chunk), never on the worker count, so
  /// per-chunk results merge in a fixed order like the edge-balanced modes.
  [[nodiscard]] static ChunkScheduler over_items(std::size_t count,
                                                 std::uint32_t items_per_chunk);

  /// Split the index range [0, count) of a sparse active list into chunks
  /// of ~chunk_edges accumulated degree; deg(i) is the cost of list entry
  /// i. Every entry costs at least 1 so empty-degree runs still terminate.
  template <typename DegFn>
  [[nodiscard]] static ChunkScheduler over_list(std::size_t count, DegFn&& deg,
                                                std::uint32_t chunk_edges) {
    BPART_CHECK(chunk_edges > 0);
    ChunkScheduler plan;
    if (count == 0) return plan;
    plan.bounds_.push_back(0);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < count; ++i) {
      acc += deg(i) + 1;
      if (acc >= chunk_edges) {
        plan.bounds_.push_back(static_cast<std::uint32_t>(i + 1));
        acc = 0;
      }
    }
    if (plan.bounds_.back() != count)
      plan.bounds_.push_back(static_cast<std::uint32_t>(count));
    return plan;
  }

  [[nodiscard]] std::size_t num_chunks() const {
    return bounds_.size() < 2 ? 0 : bounds_.size() - 1;
  }
  [[nodiscard]] Range chunk(std::size_t i) const {
    return {bounds_[i], bounds_[i + 1]};
  }

 private:
  // bounds_[i]..bounds_[i+1] delimit chunk i; empty when no chunks.
  std::vector<std::uint32_t> bounds_;
};

class Executor {
 public:
  struct RunStats {
    std::uint64_t chunks = 0;
    std::uint64_t steals = 0;
  };

  /// Spawns threads-1 pool workers (>= 1; 1 runs everything inline on the
  /// calling thread, still chunk-by-chunk through the scheduler).
  explicit Executor(unsigned threads)
      : threads_(threads == 0 ? 1 : threads) {
    if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Run fn(worker, chunk_index, lo, hi) for every chunk of `plan` exactly
  /// once. Chunks are assigned as contiguous per-worker shares; a drained
  /// worker steals from the others. Rethrows the first chunk exception
  /// after all workers have quiesced (remaining chunks are skipped).
  template <typename Fn>
  RunStats run(const ChunkScheduler& plan, Fn&& fn) {
    const std::size_t nchunks = plan.num_chunks();
    RunStats stats;
    if (nchunks == 0) return stats;
    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_, nchunks));
    BPART_SPAN("exec/run", "chunks", static_cast<double>(nchunks), "threads",
               static_cast<double>(workers));
    // Timeline probes are per-worker and local (nothing shared on the
    // chunk path); resolved once so the off path stays one branch.
    const bool timeline = obs::timeline_enabled();
    if (workers <= 1) {
      TimelineProbe probe(0);
      for (std::size_t c = 0; c < nchunks; ++c) {
        const auto [lo, hi] = plan.chunk(c);
        if (timeline) {
          Timer t;
          fn(0u, static_cast<std::uint32_t>(c), lo, hi);
          probe.chunk(t.seconds());
        } else {
          fn(0u, static_cast<std::uint32_t>(c), lo, hi);
        }
      }
      stats.chunks = nchunks;
      obs::counter("exec.chunks").add(nchunks);
      if (timeline) probe.publish(0, 0);
      return stats;
    }

    // Per-worker cursor over a contiguous chunk share; stealing bumps the
    // victim's cursor, so a chunk is taken exactly once.
    struct alignas(64) Cursor {
      std::atomic<std::uint32_t> next{0};
      std::uint32_t end = 0;
    };
    std::vector<Cursor> cursor(workers);
    const std::size_t per = nchunks / workers;
    const std::size_t extra = nchunks % workers;
    std::size_t begin = 0;
    for (unsigned w = 0; w < workers; ++w) {
      const std::size_t len = per + (w < extra ? 1 : 0);
      cursor[w].next.store(static_cast<std::uint32_t>(begin),
                           std::memory_order_relaxed);
      cursor[w].end = static_cast<std::uint32_t>(begin + len);
      begin += len;
    }

    std::atomic<std::uint64_t> steals{0};
    std::atomic<bool> cancelled{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    auto worker_loop = [&](unsigned w) {
      BPART_SPAN("exec/worker", "worker", static_cast<double>(w));
      std::uint64_t my_steals = 0;
      TimelineProbe probe(w);
      auto run_chunk = [&](std::uint32_t c) {
        const auto [lo, hi] = plan.chunk(c);
        if (timeline) {
          Timer t;
          fn(w, c, lo, hi);
          probe.chunk(t.seconds());
        } else {
          fn(w, c, lo, hi);
        }
      };
      auto finish = [&] {
        if (my_steals != 0)
          steals.fetch_add(my_steals, std::memory_order_relaxed);
        if (timeline) probe.publish(w, my_steals);
      };
      try {
        for (;;) {
          if (cancelled.load(std::memory_order_relaxed)) break;
          const std::uint32_t c =
              cursor[w].next.fetch_add(1, std::memory_order_relaxed);
          if (c >= cursor[w].end) break;
          run_chunk(c);
        }
        for (unsigned off = 1; off < workers; ++off) {
          const unsigned victim = (w + off) % workers;
          for (;;) {
            if (cancelled.load(std::memory_order_relaxed)) {
              finish();
              return;
            }
            if (cursor[victim].next.load(std::memory_order_relaxed) >=
                cursor[victim].end)
              break;
            const std::uint32_t c =
                cursor[victim].next.fetch_add(1, std::memory_order_relaxed);
            if (c >= cursor[victim].end) break;
            ++my_steals;
            run_chunk(c);
          }
        }
      } catch (...) {
        cancelled.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      finish();
    };

    std::vector<std::future<void>> pending;
    pending.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
      pending.push_back(pool_->submit([&worker_loop, w] { worker_loop(w); }));
    worker_loop(0);
    // worker_loop swallows exceptions into first_error, so get() is clean.
    for (auto& f : pending) f.get();
    if (first_error) std::rethrow_exception(first_error);

    stats.chunks = nchunks;
    stats.steals = steals.load(std::memory_order_relaxed);
    obs::counter("exec.chunks").add(stats.chunks);
    if (stats.steals != 0) obs::counter("exec.steals").add(stats.steals);
    return stats;
  }

 private:
  /// Per-worker timeline accumulator: chunk count, busy seconds and a
  /// bounded reservoir of chunk durations, all thread-local to the worker
  /// (nothing shared on the chunk path). publish() hands the batch to the
  /// timeline recorder in one call. Instances are cheap to construct, so
  /// workers carry one unconditionally and only feed it when the timeline
  /// is on.
  struct TimelineProbe {
    static constexpr std::size_t kReservoir = 32;

    explicit TimelineProbe(unsigned worker)
        : rng(worker * 0x9E3779B97F4A7C15ULL + 1) {}

    void chunk(double seconds) {
      ++chunks;
      busy += seconds;
      if (samples.size() < kReservoir) {
        samples.push_back(seconds);
        return;
      }
      // Algorithm R with an xorshift64* draw: keep each chunk with
      // probability kReservoir / chunks, deterministically per worker.
      rng ^= rng >> 12;
      rng ^= rng << 25;
      rng ^= rng >> 27;
      const std::uint64_t slot = (rng * 0x2545F4914F6CDD1DULL) % chunks;
      if (slot < kReservoir) samples[slot] = seconds;
    }

    void publish(unsigned worker, std::uint64_t steals) const {
      obs::timeline_record_exec(worker, chunks, steals, busy, samples);
    }

    std::uint64_t chunks = 0;
    double busy = 0;
    std::uint64_t rng;
    std::vector<double> samples;
  };

  unsigned threads_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bpart::exec
