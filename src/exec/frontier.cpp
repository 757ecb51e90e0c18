#include "exec/frontier.hpp"

#include <algorithm>

namespace bpart::exec {

void Frontier::reset(graph::VertexId universe) {
  flags_.assign(universe, 0);
  list_.clear();
  size_ = 0;
  edge_mass_ = 0;
}

void Frontier::clear() {
  if (list_.size() * 4 > flags_.size()) {
    std::fill(flags_.begin(), flags_.end(), 0);
  } else {
    for (const graph::VertexId v : list_) flags_[v] = 0;
  }
  list_.clear();
  size_ = 0;
  edge_mass_ = 0;
}

bool choose_pull(std::uint64_t frontier_edges, std::uint64_t frontier_vertices,
                 std::uint64_t total_edges, std::uint64_t total_vertices) {
  constexpr double kAlpha = 14.0;
  constexpr double kBeta = 24.0;
  const bool dense_edges = static_cast<double>(frontier_edges) >
                           static_cast<double>(total_edges) / kAlpha;
  const bool big_frontier = static_cast<double>(frontier_vertices) >
                            static_cast<double>(total_vertices) / kBeta;
  return dense_edges || big_frontier;
}

}  // namespace bpart::exec
