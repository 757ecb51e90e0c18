// Mutable edge-list representation used during graph construction.
//
// Generators and file loaders produce an EdgeList; the CSR Graph is built
// from it once, after optional cleanup passes (dedup, self-loop removal,
// symmetrization).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace bpart::graph {

class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(VertexId num_vertices) : num_vertices_(num_vertices) {}

  void reserve(std::size_t edges) { edges_.reserve(edges); }

  /// Appends a directed edge, growing the vertex count to cover both ends.
  /// Neither end may be kInvalidVertex (the count would wrap to 0).
  void add(VertexId src, VertexId dst);

  /// Appends both (src,dst) and (dst,src).
  void add_undirected(VertexId src, VertexId dst);

  /// Bulk-append a parsed batch whose largest endpoint id is `max_vertex`.
  /// Equivalent to add() in a loop but without the per-edge vertex-count
  /// update; the ingest pipeline's hot path. `max_vertex` is validated
  /// against the batch: debug builds assert it covers every endpoint,
  /// release builds clamp the vertex count to the real bound so an
  /// undercounting caller can never produce an out-of-range edge list.
  /// Like add(), rejects kInvalidVertex as an endpoint or bound.
  void append(std::span<const Edge> batch, VertexId max_vertex);

  [[nodiscard]] std::size_t size() const { return edges_.size(); }
  [[nodiscard]] bool empty() const { return edges_.empty(); }
  [[nodiscard]] VertexId num_vertices() const { return num_vertices_; }
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }
  [[nodiscard]] const Edge& operator[](std::size_t i) const {
    return edges_[i];
  }

  /// Force the vertex-count (e.g. to include isolated trailing vertices).
  void set_num_vertices(VertexId n);

  /// Remove src == dst edges. Returns the number removed.
  std::size_t remove_self_loops();

  /// Sort by (src, dst) and remove exact duplicates. Returns removed count.
  std::size_t sort_and_dedup();

  /// Add the reverse of every edge, then dedup, making the list symmetric.
  void symmetrize();

  /// Per-vertex out-degrees (length num_vertices()).
  [[nodiscard]] std::vector<EdgeId> out_degrees() const;

 private:
  std::vector<Edge> edges_;
  VertexId num_vertices_ = 0;
};

}  // namespace bpart::graph
