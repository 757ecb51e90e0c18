// KnightKing-like distributed random-walk engine.
//
// Walkers live on the machine owning their current vertex. Every BSP
// iteration each active walker takes one step; a walker whose next vertex
// is owned by another machine is shipped there as a "message walk" — the
// paper's traffic metric (Fig. 5b). A machine's computing load is the
// number of walking steps it executes (Fig. 4), so per-iteration balance
// and waiting time (Figs. 12/13) fall straight out of the accounting.
//
// Walker stepping runs on the exec core (WalkConfig::exec or
// $BPART_EXEC_THREADS picks the worker count): walker batches are chunked
// with the weight-free over_items mode and every step draws from a
// counter-based RNG stream keyed on (seed, walker, step), so results are
// bitwise identical at any thread count and chunk size (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/bsp.hpp"
#include "exec/exec_config.hpp"
#include "graph/csr.hpp"
#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace bpart::walk {

/// The RNG handed to a walk application for one step: a CounterRng stream
/// derived from (seed, walker id, step index), so a step's draws are a pure
/// function of the key — independent of scheduling, chunking and thread
/// count. uniform/bounded/chance use the exact arithmetic of Xoshiro256's
/// helpers.
class StepRng {
 public:
  /// An independent stream per (seed, walker, step).
  StepRng(std::uint64_t seed, std::uint64_t walker, std::uint64_t step) noexcept
      : keyed_(seed, walker, step) {}

  /// The same stream from a batched stream head (CounterRng::first_draws):
  /// next() hands out `first` and then continues from `post_state` — the
  /// exact draw sequence of the three-argument constructor, with the key
  /// derivation already paid in the vectorized batch.
  static StepRng with_first_draw(std::uint64_t first,
                                 std::uint64_t post_state) noexcept {
    StepRng r(CounterRng::from_raw_state(post_state));
    r.pending_ = first;
    r.has_pending_ = true;
    return r;
  }

  std::uint64_t next() noexcept {
    if (has_pending_) {
      has_pending_ = false;
      return pending_;
    }
    return keyed_();
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t bounded(std::uint64_t bound) noexcept {
    BPART_DCHECK(bound > 0);
    unsigned __int128 m = static_cast<unsigned __int128>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(next()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform() < p; }

 private:
  explicit StepRng(CounterRng keyed) noexcept : keyed_(keyed) {}

  CounterRng keyed_;
  std::uint64_t pending_ = 0;  // first draw handed out before keyed_ runs
  bool has_pending_ = false;
};

/// Immutable view of one walker handed to the application policy.
struct WalkerState {
  graph::VertexId source = 0;    ///< Start vertex.
  graph::VertexId current = 0;
  graph::VertexId previous = graph::kInvalidVertex;  ///< For 2nd-order apps.
  unsigned steps_taken = 0;
};

/// One step's outcome.
struct StepDecision {
  bool terminate = false;
  graph::VertexId next = graph::kInvalidVertex;

  static StepDecision stop() { return {true, graph::kInvalidVertex}; }
  static StepDecision move_to(graph::VertexId v) { return {false, v}; }
};

/// A random-walk application: decides each walker's next step.
class WalkApp {
 public:
  virtual ~WalkApp() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Called once per active walker per iteration. Implementations must be
  /// deterministic given (state, rng).
  [[nodiscard]] virtual StepDecision step(const WalkerState& state,
                                          const graph::Graph& g,
                                          StepRng& rng) const = 0;
};

struct WalkConfig {
  /// Walkers started per vertex (the paper uses 1 or 5 per vertex).
  unsigned walks_per_vertex = 1;
  /// When non-empty, walkers start at these vertices (with multiplicity,
  /// walks_per_vertex copies each) instead of at every vertex — the
  /// single-source / seeded mode used by PPR estimation.
  std::vector<graph::VertexId> sources;
  std::uint64_t seed = 1;
  /// Hard iteration cap (a safety net for apps with probabilistic
  /// termination).
  unsigned max_iterations = 10000;
  /// KnightKing's greedy compute phase (§2.1 of the paper): within one
  /// iteration a walker keeps stepping while it stays on its current
  /// machine, pausing only when it crosses a partition boundary (it is
  /// then shipped and resumes next iteration). This is what ties a
  /// machine's per-iteration load to its *edge* mass, the paper's central
  /// imbalance mechanism. false = one synchronous step per iteration.
  bool greedy_local = true;
  /// Record every walker's full path (memory: walkers × length). Off by
  /// default; the embeddings example turns it on.
  bool record_paths = false;
  /// Exec-core workers that step walker batches in parallel (batch size =
  /// chunk_edges / 16 walkers); outputs do not depend on it.
  exec::ExecConfig exec;
};

struct WalkReport {
  cluster::RunReport run;
  std::uint64_t total_steps = 0;
  /// Walkers shipped across machines — the paper's "message walks".
  std::uint64_t message_walks = 0;
  /// Per-vertex visit counts over all walks (including the start visit).
  std::vector<std::uint64_t> visits;
  /// Full walk paths when WalkConfig::record_paths is set.
  std::vector<std::vector<graph::VertexId>> paths;
};

/// Run `app` over all walkers to completion (or max_iterations).
WalkReport run_walks(const graph::Graph& g, const partition::Partition& parts,
                     const WalkApp& app, const WalkConfig& cfg = {},
                     cluster::CostModel model = {});

}  // namespace bpart::walk
