// Monte-Carlo personalized PageRank — the application-level API on top of
// the walk engine, mirroring what a KnightKing user builds: start many
// terminating walks at a source and read the stationary visit frequencies
// as PPR scores (Fogaras et al. [14], the paper's PPR reference).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/bsp.hpp"
#include "exec/exec_config.hpp"
#include "graph/csr.hpp"
#include "partition/partition.hpp"

namespace bpart::walk {

struct PprConfig {
  std::uint64_t num_walks = 10000;  ///< Walks started at the source.
  double stop_prob = 0.15;          ///< 1 - damping.
  std::size_t top_k = 20;
  std::uint64_t seed = 1;
  /// Passed through to WalkConfig::exec (see walk_engine.hpp); scores do
  /// not depend on it.
  exec::ExecConfig exec;
};

struct PprScores {
  struct Entry {
    graph::VertexId vertex;
    double score;  ///< Estimated PPR mass, sums to ~1 over all vertices.
  };
  std::vector<Entry> top;  ///< Highest scores first, length <= top_k.
  std::uint64_t total_visits = 0;
  cluster::RunReport run;
};

/// Estimate PPR(source, ·) with `num_walks` terminating random walks run
/// on the simulated cluster under `parts`.
PprScores estimate_ppr(const graph::Graph& g,
                       const partition::Partition& parts,
                       graph::VertexId source, const PprConfig& cfg = {});

/// Exact PPR by power iteration (small graphs / tests): dense vectors,
/// iterates until the L1 delta falls below `tolerance`.
std::vector<double> exact_ppr(const graph::Graph& g, graph::VertexId source,
                              double stop_prob, double tolerance = 1e-10,
                              unsigned max_iterations = 1000);

}  // namespace bpart::walk
