// Materialized per-machine subgraphs.
//
// Partitioning is only useful once each machine holds its piece: the local
// CSR over renumbered vertices, the ghost table (remote endpoints of cut
// edges), and the boundary index used to build message batches. This is
// the loader-side structure Gemini/KnightKing construct from a vertex
// assignment, and the natural hand-off point between this library and a
// real distributed system.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "partition/partition.hpp"

namespace bpart::partition {

/// One machine's share of the graph.
struct Subgraph {
  /// Local ids 0..num_local-1 are owned vertices (in ascending global id
  /// order); ids num_local..num_local+num_ghosts-1 are ghosts (remote
  /// endpoints of cut edges), also ascending by global id.
  ///
  /// Out-run layout: an owned vertex's run holds its owned targets, then
  /// its ghost targets, each ascending by global id. Since both id ranges
  /// are numbered in global order, the run is sorted by local id, like
  /// every CSR run. The in-CSR is its transpose (sources ascending).
  graph::Graph local;                     ///< CSR over local ids.
  std::vector<graph::VertexId> global_id; ///< local id -> global id.
  graph::VertexId num_local = 0;
  graph::VertexId num_ghosts = 0;
  /// Owner machine of each ghost (aligned with ghost local ids).
  std::vector<PartId> ghost_owner;
  /// Owned edges whose target is a ghost — the message schedule.
  std::uint64_t cut_edges = 0;

  [[nodiscard]] bool is_ghost(graph::VertexId local_id) const {
    return local_id >= num_local;
  }
};

/// Build every machine's subgraph from a full assignment. Each owned
/// vertex's complete out-adjacency is materialized (targets renumbered,
/// remote targets becoming ghosts); ghost vertices carry no out-edges
/// locally, exactly like Gemini's mirrors. Each part's CSR is renumbered
/// straight from g's; the parts are built on up to `workers` threads, and
/// the result does not depend on the count.
std::vector<Subgraph> build_subgraphs(const graph::Graph& g,
                                      const Partition& p,
                                      unsigned workers = 1);

/// Consistency check used by tests and loaders: owned and ghost ids are
/// each strictly ascending, ghost tables are sound, every owned vertex's
/// local out-run is its global out-run renumbered (same multiset, sorted by
/// local id), the local in-CSR is the out-CSR's transpose, and per-part cut
/// totals match partition::edge_cut_count.
bool verify_subgraphs(const graph::Graph& g, const Partition& p,
                      const std::vector<Subgraph>& subs);

}  // namespace bpart::partition
