// Whole-graph structural analysis: degree statistics, scale-free checks and
// connectivity. Used by generator tests (to assert the synthetic stand-ins
// have the properties the paper's datasets have) and by examples.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "util/histogram.hpp"

namespace bpart::graph {

struct GraphStats {
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;
  double avg_degree = 0;
  EdgeId max_out_degree = 0;
  EdgeId max_in_degree = 0;
  VertexId isolated_vertices = 0;  ///< out-degree 0 and in-degree 0.
  double degree_gini = 0;          ///< Inequality of the out-degree dist.
  double power_law_slope = 0;      ///< log-log slope; scale-free ~ -1..-2.5.
  bool symmetric = false;
};

GraphStats analyze(const Graph& g);

/// Log2-bucketed out-degree histogram.
LogHistogram degree_histogram(const Graph& g);

/// Connected components over the *undirected* view of g (each directed edge
/// treated both ways). Returns per-vertex component labels, 0-based dense.
std::vector<VertexId> connected_components(const Graph& g);

/// Number of distinct labels in a component labeling.
VertexId count_components(const std::vector<VertexId>& labels);

}  // namespace bpart::graph
