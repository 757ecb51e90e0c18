// Distributed PageRank (fixed iteration count) — one of the two
// Gemini applications in the paper's evaluation (§4.1 runs PR for ten
// iterations).
#pragma once

#include <vector>

#include "engine/context.hpp"
#include "exec/exec_config.hpp"

namespace bpart::engine {

struct PageRankConfig {
  double damping = 0.85;
  unsigned iterations = 10;
  /// Intra-machine parallel execution (src/exec/): the chunk-scheduled pull
  /// gather, whose ranks are bit-identical across thread counts.
  exec::ExecConfig exec;
};

struct PageRankResult {
  std::vector<double> rank;      ///< Per-vertex rank, sums to ~1.
  cluster::RunReport run;
};

/// Each iteration, every machine sends rank/out_degree along its owned
/// vertices' out-edges; contributions crossing a partition boundary are
/// counted as messages. Dangling vertices distribute their rank uniformly
/// (handled as a global correction term, no traffic). The measured
/// counterpart on real threads and channels is dist::pagerank.
PageRankResult pagerank(const graph::Graph& g,
                        const partition::Partition& parts,
                        const PageRankConfig& cfg = {},
                        cluster::CostModel model = {});

}  // namespace bpart::engine
