// Shared test fixtures: small synthetic graphs with the structure the
// partitioners are designed for (power-law degrees + communities).
#pragma once

#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace bpart::partition::testing {

/// A small social-network-like graph: scale-free degrees, planted
/// communities, crawl-order ids. ~16K vertices / ~330K directed edges.
inline graph::Graph social_graph() {
  graph::CommunityGraphConfig cfg;
  cfg.num_vertices = 1 << 14;
  cfg.avg_degree = 20.0;
  cfg.degree_exponent = 2.0;
  cfg.num_communities = 64;
  cfg.mixing = 0.3;
  cfg.id_noise = 0.4;
  cfg.seed = 7;
  return graph::Graph::from_edges_symmetric(graph::community_scale_free(cfg));
}

/// Scale-free but community-free (R-MAT): exercises the degree-skew code
/// paths without the community structure.
inline graph::Graph scale_free_graph() {
  graph::RmatConfig cfg;
  cfg.scale = 13;
  cfg.edge_factor = 16;
  return graph::Graph::from_edges_symmetric(graph::rmat(cfg));
}

/// A one-sided graph's arrays stored as both sides of a two-sided graph, so
/// for_each_neighbor scans every run twice, as it does on a directed graph.
inline graph::Graph two_sided_copy(const graph::Graph& g) {
  const std::vector<graph::EdgeId> off(g.out_offsets().begin(),
                                       g.out_offsets().end());
  const std::vector<graph::VertexId> tgt(g.out_targets().begin(),
                                         g.out_targets().end());
  return graph::Graph::from_csr(off, tgt, off, tgt);
}

}  // namespace bpart::partition::testing
