// Distributed Connected Components via HashMin label propagation — the
// second Gemini application in the paper (run "until convergence", §4.1).
#pragma once

#include <vector>

#include "engine/context.hpp"
#include "exec/exec_config.hpp"

namespace bpart::engine {

struct ComponentsResult {
  std::vector<graph::VertexId> label;  ///< Min vertex id of the component.
  graph::VertexId num_components = 0;
  cluster::RunReport run;
};

/// Each iteration, active vertices (label changed last round) push their
/// label to all neighbors; a vertex adopting a smaller label activates for
/// the next round. Operates on the undirected view (out+in neighbors), so
/// labels equal the weakly connected component minima.
/// `exec` sizes the exec core that runs each superstep's scan; labels,
/// component count and the run report are bit-identical for every thread
/// count (min-label merges are order-independent).
ComponentsResult connected_components(const graph::Graph& g,
                                      const partition::Partition& parts,
                                      cluster::CostModel model = {},
                                      unsigned max_iterations = 200,
                                      const exec::ExecConfig& exec = {});

}  // namespace bpart::engine
