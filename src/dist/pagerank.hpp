// Distributed PageRank on the measured runtime.
//
// Same math as engine::pagerank (ten fixed iterations, global dangling
// correction) but executed for real: each machine owns its subgraph piece,
// cross-partition contributions aggregate in ghost slots and ship as one
// double per (ghost, superstep) over the typed channels, and the returned
// RunReport carries measured wall-clock compute/wait/bytes instead of
// cost-model seconds. Contributions travel as doubles, so ranks match the
// accounting engine to ~1e-12 (summation order differs across machines).
#pragma once

#include "dist/runtime.hpp"
#include "engine/pagerank.hpp"

namespace bpart::dist {

/// When the owned piece moves its local mass. The one mode, kPull, gathers
/// shares per destination over the local in-CSR at the next superstep's
/// finalize (a fixed summation order at any thread count); boundary
/// contributions arrive as ghost-aggregated messages, since remote in-edges
/// live on the remote machine.
enum class PrMode : std::uint8_t { kPull };

engine::PageRankResult pagerank(const graph::Graph& g,
                                const partition::Partition& parts,
                                const engine::PageRankConfig& cfg = {},
                                PrMode mode = PrMode::kPull,
                                const DistOptions& opts = {});

}  // namespace bpart::dist
