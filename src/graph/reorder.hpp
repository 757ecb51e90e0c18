// Vertex reordering (relabeling) utilities.
//
// The evaluation shows chunking quality is a function of *id order* (the
// crawl-order structure of real dumps). This module makes that a
// first-class experiment: permute a graph's ids by degree, BFS order,
// or randomly, and re-measure. Also generally useful: degree ordering is
// the standard preprocessing step for cache-friendly CSR layouts.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace bpart {

/// Vertex-relabeling mode the pipeline applies before partitioning
/// (PipelineConfig::reorder).
enum class ReorderMode : std::uint8_t { kNone, kDegree, kBfs, kRandom };

/// The name of a mode ("none"/"degree"/"bfs"/"random") — cache keys and
/// bench rows use it.
const char* reorder_mode_name(ReorderMode mode);

}  // namespace bpart

namespace bpart::graph {

/// Relabel: new id of v is perm[v]. perm must be a permutation of [0, n).
/// Structure is preserved exactly (degrees, triangles, components move
/// with the labels). Relabels CSR-to-CSR: new out-run perm[v] is v's
/// out-run mapped through perm and sorted, and the in-side is its
/// transpose. Runs on `workers` threads (0 means bpart::thread_count();
/// small graphs relabel inline), with output identical at every worker
/// count.
Graph apply_permutation(const Graph& g, const std::vector<VertexId>& perm,
                        unsigned workers = 0);

/// perm sorting vertices by descending out-degree (stable: id tie-break).
/// Produces the "hubs first" layout real crawls approximate.
std::vector<VertexId> degree_order(const Graph& g);

/// BFS order from `source` over the undirected view; unreached vertices
/// follow in id order. Produces the locality chunking likes.
std::vector<VertexId> bfs_order(const Graph& g, VertexId source);

/// Seeded uniform shuffle — destroys all id structure.
std::vector<VertexId> random_order(VertexId n, std::uint64_t seed);

/// True if perm is a permutation of [0, n).
bool is_permutation(const std::vector<VertexId>& perm);

/// inv[new id] = old id, the inverse of perm[old id] = new id. Checked.
std::vector<VertexId> invert_permutation(const std::vector<VertexId>& perm);

/// The permutation for a reorder mode: degree_order, bfs_order from
/// the highest-out-degree vertex (lowest id on ties — a deterministic hub
/// seed), or random_order(seed). kNone returns an empty vector, the
/// pipeline's "identity, skip the rebuild" signal.
std::vector<VertexId> select_order(const Graph& g, ReorderMode mode,
                                   std::uint64_t seed);

}  // namespace bpart::graph
