#include "graph/edge_list.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace bpart::graph {

void EdgeList::add(VertexId src, VertexId dst) {
  const VertexId hi = std::max(src, dst);
  // num_vertices_ = hi + 1 must not wrap to 0.
  BPART_CHECK_MSG(hi != kInvalidVertex, "vertex id " << hi << " is reserved");
  edges_.push_back(Edge{src, dst});
  if (hi >= num_vertices_) num_vertices_ = hi + 1;
}

void EdgeList::add_undirected(VertexId src, VertexId dst) {
  add(src, dst);
  edges_.push_back(Edge{dst, src});
}

void EdgeList::append(std::span<const Edge> batch, VertexId max_vertex) {
  if (batch.empty()) return;
  // Never trust the caller's claimed bound: an undercounted max_vertex
  // would leave num_vertices_ smaller than an endpoint and every CSR built
  // from this list indexing out of bounds. The scan is branch-light and
  // vectorizes, so the hot ingest path keeps its speed; debug builds
  // assert the contract, release builds clamp to the real bound.
  VertexId batch_max = 0;
  for (const Edge& e : batch) batch_max = std::max({batch_max, e.src, e.dst});
  BPART_DCHECK(batch_max <= max_vertex);
  if (batch_max > max_vertex) max_vertex = batch_max;
  BPART_CHECK_MSG(max_vertex != kInvalidVertex,
                  "vertex id " << max_vertex << " is reserved");
  edges_.insert(edges_.end(), batch.begin(), batch.end());
  if (max_vertex >= num_vertices_) num_vertices_ = max_vertex + 1;
}

void EdgeList::set_num_vertices(VertexId n) {
  for (const Edge& e : edges_)
    BPART_CHECK_MSG(e.src < n && e.dst < n,
                    "edge (" << e.src << "," << e.dst
                             << ") out of range for n=" << n);
  num_vertices_ = n;
}

std::size_t EdgeList::remove_self_loops() {
  const std::size_t before = edges_.size();
  std::erase_if(edges_, [](const Edge& e) { return e.src == e.dst; });
  return before - edges_.size();
}

std::size_t EdgeList::sort_and_dedup() {
  std::sort(edges_.begin(), edges_.end());
  const std::size_t before = edges_.size();
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  return before - edges_.size();
}

void EdgeList::symmetrize() {
  const std::size_t n = edges_.size();
  edges_.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i)
    edges_.push_back(Edge{edges_[i].dst, edges_[i].src});
  sort_and_dedup();
}

std::vector<EdgeId> EdgeList::out_degrees() const {
  std::vector<EdgeId> deg(num_vertices_, 0);
  for (const Edge& e : edges_) ++deg[e.src];
  return deg;
}

}  // namespace bpart::graph
