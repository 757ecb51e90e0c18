// Partition quality metrics — the quantities reported in the paper's
// evaluation (Figs. 3, 6, 8, 10, 11; Tables 2, 3; §3.3 connectivity).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "partition/partition.hpp"
#include "util/stats.hpp"

namespace bpart::partition {

/// One row of the paper's balance analysis for a single partition result.
struct QualityReport {
  std::vector<std::uint64_t> vertex_counts;
  std::vector<std::uint64_t> edge_counts;
  stats::Summary vertex_summary;  ///< bias/fairness over vertex counts.
  stats::Summary edge_summary;    ///< bias/fairness over edge counts.
  double edge_cut_ratio = 0;      ///< cut edges / total edges.
};

QualityReport evaluate(const graph::Graph& g, const Partition& p);

/// Fraction of edges (u,v) with part(u) != part(v). Unassigned endpoints
/// count as cut (they will live on some other machine eventually).
double edge_cut_ratio(const graph::Graph& g, const Partition& p);

/// Absolute number of cut edges.
std::uint64_t edge_cut_count(const graph::Graph& g, const Partition& p);

/// k x k matrix: entry (i, j) = number of directed edges from part i to
/// part j. The diagonal holds internal edges. §3.3 of the paper uses the
/// off-diagonal minimum to argue combined subgraphs stay well connected.
std::vector<std::vector<std::uint64_t>> cut_matrix(const graph::Graph& g,
                                                   const Partition& p);

/// Smallest off-diagonal entry of cut_matrix treating (i,j)+(j,i) as one
/// pair count — the paper's "at least 50,000 edge connections between any
/// two subgraphs" measurement.
std::uint64_t min_pairwise_connectivity(const graph::Graph& g,
                                        const Partition& p);

}  // namespace bpart::partition
