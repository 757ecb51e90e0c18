// Random-walk engine on the dist:: measured runtime: fixed-length uniform
// walks, KnightKing-style. Each machine owns the walkers currently on its
// vertices and advances them greedily until they finish, dead-end or cross
// a partition boundary; a crossing walker ships to its new owner over the
// Channel<Walker> typed batches. The returned cluster::RunReport carries
// measured per-machine compute/wait seconds and walker bytes shipped, so
// walk workloads plot on the same axes as the cost-model simulations
// (fig13's measured column).
//
// Each machine keeps its owned vertices' targets in global-id order (one
// 4-byte table per machine), and each exec chunk of its walker queue keeps
// a group of walkers in flight, stepped round-robin with the next loads
// prefetched, so a walker that stays local for a long chain does not
// serialize its cache misses (DESIGN.md §13).
//
// Every step draws from the counter-based stream keyed on
// (seed, walker, step) — the same streams run_walks() uses — so a walker's
// trajectory is a pure function of the seed: step totals, message-walk
// counts and per-walker paths are identical across machine counts, exec
// thread counts, and identical to run_walks() with SimpleRandomWalk. Every
// per-superstep, per-machine work and message row is identical across exec
// thread counts and chunk sizes too.
#pragma once

#include <cstdint>

#include "cluster/bsp.hpp"
#include "exec/exec_config.hpp"
#include "graph/csr.hpp"
#include "partition/partition.hpp"

namespace bpart::walk {

struct ThreadedWalkConfig {
  unsigned length = 4;  ///< Steps per walker.
  unsigned walks_per_vertex = 1;
  std::uint64_t seed = 1;
  std::size_t max_supersteps = 100000;
  /// Exec-core workers that advance each machine's walker queue over
  /// over_items chunks; outgoing walkers merge in chunk order before the
  /// channel flush, so outputs do not depend on it.
  exec::ExecConfig exec;
};

struct DistWalkReport {
  std::uint64_t total_steps = 0;
  std::uint64_t message_walks = 0;  ///< Walkers shipped across machines.
  std::size_t supersteps = 0;
  cluster::RunReport run;  ///< Measured wall-clock, not cost-model.
};

/// Runs walks_per_vertex × |V| fixed-length uniform walks, one machine per
/// partition, over the dist runtime (util::thread_count() worker threads).
DistWalkReport run_simple_walks_dist(const graph::Graph& g,
                                     const partition::Partition& parts,
                                     const ThreadedWalkConfig& cfg = {});

}  // namespace bpart::walk
