// Immutable compressed-sparse-row graph.
//
// Serves out- and in-adjacency so push- and pull-mode engines, the
// streaming partitioners (which score a vertex by its neighbors in *either*
// direction) and the walk engine all read from the same structure. A
// symmetric build stores one side and serves it as both (one_sided()).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"

namespace bpart::graph {

class Graph {
 public:
  /// Builds CSR from an edge list (treated as directed edges).
  /// The edge list is not modified; duplicates are kept as parallel edges.
  /// Every adjacency run comes out sorted. The build runs on `workers`
  /// threads (0 means bpart::thread_count(); small lists build inline) and
  /// its output is identical at every worker count.
  static Graph from_edges(const EdgeList& edges, unsigned workers = 0);

  /// Convenience: build a symmetric graph (each input edge present in both
  /// directions, self-loops removed, duplicates collapsed). Takes the list
  /// by value so a moved-in list is freed once the build has read it;
  /// `workers` as for from_edges.
  static Graph from_edges_symmetric(EdgeList edges, unsigned workers = 0);

  /// Adopt pre-built CSR arrays (e.g. deserialized from the artifact
  /// cache). Validates structural invariants — offset lengths, monotone
  /// offsets, target bounds, ascending (non-decreasing) adjacency runs,
  /// out/in edge-count agreement — and throws std::invalid_argument on
  /// violation so a stale or foreign cache file can never produce an
  /// out-of-bounds graph or break a reader that binary-searches a run.
  static Graph from_csr(std::vector<EdgeId> out_offsets,
                        std::vector<VertexId> out_targets,
                        std::vector<EdgeId> in_offsets,
                        std::vector<VertexId> in_targets);

  /// Adopt one side as a one-sided graph: the same structural checks, but
  /// the side is taken to be symmetric, not checked to be.
  static Graph from_csr(std::vector<EdgeId> offsets,
                        std::vector<VertexId> targets);

  Graph() = default;

  [[nodiscard]] VertexId num_vertices() const {
    return static_cast<VertexId>(out_offsets_.empty()
                                     ? 0
                                     : out_offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const { return out_targets_.size(); }
  [[nodiscard]] double avg_degree() const {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(num_edges()) /
                     static_cast<double>(num_vertices());
  }

  [[nodiscard]] EdgeId out_degree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  [[nodiscard]] EdgeId in_degree(VertexId v) const {
    return in_offsets()[v + 1] - in_offsets()[v];
  }

  [[nodiscard]] std::span<const VertexId> out_neighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }
  [[nodiscard]] std::span<const VertexId> in_neighbors(VertexId v) const {
    return in_targets().subspan(in_offsets()[v], in_degree(v));
  }

  /// N(v): fn(u, 1) for every out-neighbor u, then every in-neighbor. A
  /// one-sided graph scans its one run with fn(u, 2): the same sums of
  /// `times`, and the same first visit of each u.
  template <typename Fn>
  void for_each_neighbor(VertexId v, Fn&& fn) const {
    const unsigned times = one_sided_ ? 2 : 1;
    for (const VertexId u : out_neighbors(v)) fn(u, times);
    if (!one_sided_)
      for (const VertexId u : in_neighbors(v)) fn(u, times);
  }

  /// k-th out-neighbor of v (0 <= k < out_degree(v)); hot path of the
  /// walk engine, kept branch-free.
  [[nodiscard]] VertexId out_neighbor(VertexId v, EdgeId k) const {
    return out_targets_[out_offsets_[v] + k];
  }

  /// Stores one side, served as both: the representation, not a check.
  [[nodiscard]] bool one_sided() const { return one_sided_; }

  /// True when every (u,v) has a matching (v,u). O(1) if one_sided().
  [[nodiscard]] bool is_symmetric() const;

  /// Out-degree array copy (length n); used by partitioners and stats.
  [[nodiscard]] std::vector<EdgeId> out_degrees() const;

  [[nodiscard]] std::span<const EdgeId> out_offsets() const {
    return out_offsets_;
  }
  [[nodiscard]] std::span<const VertexId> out_targets() const {
    return out_targets_;
  }
  [[nodiscard]] std::span<const EdgeId> in_offsets() const {
    return one_sided_ ? out_offsets_ : in_offsets_;
  }
  [[nodiscard]] std::span<const VertexId> in_targets() const {
    return one_sided_ ? out_targets_ : in_targets_;
  }

 private:
  friend Graph apply_permutation(const Graph& g,
                                 const std::vector<VertexId>& perm,
                                 unsigned workers);

  /// apply_permutation's CSR-to-CSR relabel; perm is a checked
  /// permutation of [0, n).
  static Graph relabeled(const Graph& g, std::span<const VertexId> perm,
                         unsigned workers);

  /// Sorts the out-runs (see csr.cpp); a two-sided graph gets its in-side.
  void sort_by_transposing(unsigned workers);

  // offsets have length n+1 (or 0 for an empty graph); targets length == m.
  std::vector<EdgeId> out_offsets_;
  std::vector<VertexId> out_targets_;
  std::vector<EdgeId> in_offsets_;  // Both in arrays empty if one_sided_.
  std::vector<VertexId> in_targets_;
  bool one_sided_ = false;
};

}  // namespace bpart::graph
