// Distributed single-source shortest paths (Bellman-Ford style frontier
// relaxation). The paper's graphs are unweighted; to make SSSP distinct
// from BFS we derive deterministic pseudo-random edge weights by hashing
// the endpoint pair, the standard trick for benchmarking weighted engines
// on unweighted datasets.
#pragma once

#include <vector>

#include "engine/context.hpp"
#include "exec/exec_config.hpp"

namespace bpart::engine {

struct SsspConfig {
  std::uint32_t max_weight = 16;  ///< Weights uniform in [1, max_weight].
  std::uint64_t weight_seed = 99;
  /// Intra-machine parallel execution. Distances are frozen for the whole
  /// superstep (strict BSP), so distances, superstep count and the run
  /// report are deterministic across thread counts.
  exec::ExecConfig exec;
};

struct SsspResult {
  std::vector<std::uint64_t> distance;
  static constexpr std::uint64_t kUnreachable = ~std::uint64_t{0};
  cluster::RunReport run;
};

/// Deterministic weight of edge (u, v) under `cfg`.
std::uint32_t sssp_edge_weight(graph::VertexId u, graph::VertexId v,
                               const SsspConfig& cfg);

SsspResult sssp(const graph::Graph& g, const partition::Partition& parts,
                graph::VertexId source, const SsspConfig& cfg = {},
                cluster::CostModel model = {});

}  // namespace bpart::engine
