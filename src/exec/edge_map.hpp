// Push/pull edge-processing primitives over the chunk scheduler.
//
// process_edges_pull runs a per-destination gather: each destination vertex
// is visited by exactly one worker and its in-edges are folded in CSR
// order, so any reduction — floating-point sums included — is bit-identical
// for every thread count (the chunk plan depends only on the graph). This
// is the primitive PageRank's parallel path rides.
//
// process_edges_push runs a per-source scatter over the active frontier.
// Destination updates go through ScatterShards: every worker combines into
// a private dense shard (lazily dirtied, no hot-loop atomics), and merge()
// folds the touched slots into the real state in fixed worker order on one
// thread. The merged result is order-independent — hence deterministic
// across thread counts — for idempotent-commutative combiners (min, max,
// or, saturating adds). Floating-point sums through shards are
// deterministic only per thread count; route those through pull
// (DESIGN.md §10 spells out the contract).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "exec/frontier.hpp"
#include "exec/scheduler.hpp"
#include "exec/simd.hpp"
#include "graph/types.hpp"
#include "util/check.hpp"

namespace bpart::exec {

/// Per-worker scatter accumulators over a fixed index domain.
template <typename T>
class ScatterShards {
 public:
  ScatterShards() = default;

  /// Size for `workers` shards over [0, domain). Reuses allocations; all
  /// shards come back clean.
  void reset(unsigned workers, std::size_t domain) {
    shards_.resize(workers);
    domain_ = domain;
    for (Shard& s : shards_) {
      if (s.value.size() != domain) {
        s.value.assign(domain, T{});
        s.seen.assign(domain, 0);
      } else {
        for (const std::uint32_t i : s.touched) s.seen[i] = 0;
      }
      s.touched.clear();
    }
  }

  /// Min-combine `v` into worker w's slot i.
  void combine_min(unsigned w, std::size_t i, T v) {
    Shard& s = shards_[w];
    if (s.seen[i] == 0) {
      s.seen[i] = 1;
      s.touched.push_back(static_cast<std::uint32_t>(i));
      s.value[i] = v;
    } else if (v < s.value[i]) {
      s.value[i] = v;
    }
  }

  /// Sum-combine `v` into worker w's slot i.
  void add(unsigned w, std::size_t i, T v) {
    Shard& s = shards_[w];
    if (s.seen[i] == 0) {
      s.seen[i] = 1;
      s.touched.push_back(static_cast<std::uint32_t>(i));
      s.value[i] = v;
    } else {
      s.value[i] += v;
    }
  }

  /// Fold every touched slot into apply(index, value) in worker order,
  /// clearing the shards. Single-threaded — the caller does activation and
  /// bookkeeping inside `apply` without synchronization.
  template <typename Apply>
  void merge(Apply&& apply) {
    for (Shard& s : shards_) {
      for (const std::uint32_t i : s.touched) {
        apply(i, s.value[i]);
        s.seen[i] = 0;
      }
      s.touched.clear();
    }
  }

  [[nodiscard]] std::size_t domain() const { return domain_; }

 private:
  struct Shard {
    std::vector<T> value;
    std::vector<std::uint8_t> seen;
    std::vector<std::uint32_t> touched;
  };
  std::vector<Shard> shards_;
  std::size_t domain_ = 0;
};

/// Pull-mode edge processing: gather(worker, chunk, v) for every vertex of
/// the plan's range, each on exactly one worker. Deterministic for any
/// reduction done per destination in CSR order.
template <typename GatherFn>
Executor::RunStats process_edges_pull(Executor& ex, const ChunkScheduler& plan,
                                      GatherFn&& gather) {
  return ex.run(plan, [&gather](unsigned w, std::uint32_t c,
                                std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t v = lo; v < hi; ++v) gather(w, c, v);
  });
}

/// Pull-mode edge processing over an explicit CSR: like the generic
/// overload, but the plan's vertex range is walked against `offsets` /
/// `targets` so the loop can software-prefetch the *next* destinations'
/// edge ranges while the current destination folds (BPART_SIMD builds
/// only — OFF keeps the exact legacy loop). Prefetch never changes what is
/// computed, only when cache lines arrive, so the determinism contract is
/// untouched.
template <typename GatherFn>
Executor::RunStats process_edges_pull(Executor& ex, const ChunkScheduler& plan,
                                      std::span<const graph::EdgeId> offsets,
                                      std::span<const graph::VertexId> targets,
                                      GatherFn&& gather) {
  return ex.run(plan, [offsets, targets, &gather](
                          unsigned w, std::uint32_t c, std::uint32_t lo,
                          std::uint32_t hi) {
    if constexpr (simd::kEnabled) {
      // Two destinations ahead: far enough that a short run's fold does
      // not stall on the offset/targets lines, near enough to stay
      // resident until the loop arrives.
      constexpr std::uint32_t kAhead = 2;
      for (std::uint32_t v = lo; v < hi; ++v) {
        if (v + kAhead < hi) {
          simd::prefetch_read(offsets.data() + v + kAhead);
          simd::prefetch_read(targets.data() + offsets[v + kAhead]);
        }
        gather(w, c, v);
      }
    } else {
      for (std::uint32_t v = lo; v < hi; ++v) gather(w, c, v);
    }
  });
}

/// Push-mode edge processing over a frontier's active list; the plan must
/// be built over that list (ChunkScheduler::over_list on
/// frontier.active()). emit(worker, v) scatters through a ScatterShards the
/// caller merges afterwards.
template <typename EmitFn>
Executor::RunStats process_edges_push(Executor& ex, const ChunkScheduler& plan,
                                      const Frontier& frontier,
                                      EmitFn&& emit) {
  const std::span<const graph::VertexId> list = frontier.active();
  return ex.run(plan, [list, &emit](unsigned w, std::uint32_t,
                                    std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t i = lo; i < hi; ++i) emit(w, list[i]);
  });
}

}  // namespace bpart::exec
