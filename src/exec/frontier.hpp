// Active-vertex frontier: an append-ordered list of active ids (what
// frontier-driven engines iterate) plus a membership byte-map (what
// pull-mode scans test).
//
// choose_pull() is the Beamer-style push/pull switch: go pull when the
// frontier's edge mass passes |E|/14 or its vertex count passes |V|/24.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace bpart::exec {

class Frontier {
 public:
  Frontier() = default;
  explicit Frontier(graph::VertexId universe) { reset(universe); }

  /// Deactivate everything and (re)size to `universe` vertices. Keeps the
  /// allocation.
  void reset(graph::VertexId universe);

  /// Activate v, attributing `edges` to the frontier's edge mass. Adding
  /// an already-active vertex is a no-op.
  void add(graph::VertexId v, std::uint64_t edges = 0) {
    if (flags_[v] != 0) return;
    flags_[v] = 1;
    ++size_;
    edge_mass_ += edges;
    list_.push_back(v);
  }

  [[nodiscard]] bool contains(graph::VertexId v) const {
    return flags_[v] != 0;
  }
  [[nodiscard]] graph::VertexId size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Sum of the `edges` arguments passed to add() since the last clear.
  [[nodiscard]] std::uint64_t edge_mass() const { return edge_mass_; }

  /// The active list, in the order the vertices were added.
  [[nodiscard]] std::span<const graph::VertexId> active() const {
    return list_;
  }

  /// Deactivate everything, keeping the universe.
  void clear();

  void swap(Frontier& other) noexcept {
    flags_.swap(other.flags_);
    list_.swap(other.list_);
    std::swap(size_, other.size_);
    std::swap(edge_mass_, other.edge_mass_);
  }

 private:
  std::vector<std::uint8_t> flags_;
  std::vector<graph::VertexId> list_;
  graph::VertexId size_ = 0;
  std::uint64_t edge_mass_ = 0;
};

/// Gemini/Beamer direction choice with Beamer's alpha = 14, beta = 24: pull
/// when the frontier's out-edge mass exceeds |E|/14 or its population
/// exceeds |V|/24.
[[nodiscard]] bool choose_pull(std::uint64_t frontier_edges,
                               std::uint64_t frontier_vertices,
                               std::uint64_t total_edges,
                               std::uint64_t total_vertices);

}  // namespace bpart::exec
