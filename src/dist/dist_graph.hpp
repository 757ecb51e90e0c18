// Loader-side bundle for the execution runtime.
//
// partition::build_subgraphs gives each machine its renumbered CSR piece and
// ghost table; DistGraph adds the cross-machine lookups the runtime needs on
// top: owner / owner-local-id of every global vertex (for slotting incoming
// messages), ghost lookup by global id (for master→mirror broadcasts), and
// the mirror-holder index — for each owned boundary vertex, which machines
// hold it as a ghost. The mirror index is the broadcast schedule of
// Gemini-style master→mirror value updates.
#pragma once

#include <span>
#include <vector>

#include "cluster/bsp.hpp"
#include "graph/csr.hpp"
#include "partition/partition.hpp"
#include "partition/subgraph.hpp"

namespace bpart::dist {

using cluster::MachineId;

class DistGraph {
 public:
  /// Builds the subgraphs on the worker count a Runtime run with the same
  /// `threads` uses (resolve_threads); the result does not depend on it.
  DistGraph(const graph::Graph& g, const partition::Partition& parts,
            unsigned threads = 0);

  static constexpr graph::VertexId kNoGhost = static_cast<graph::VertexId>(-1);

  [[nodiscard]] MachineId num_machines() const {
    return static_cast<MachineId>(subs_.size());
  }
  [[nodiscard]] const partition::Subgraph& subgraph(MachineId m) const {
    return subs_[m];
  }

  [[nodiscard]] partition::PartId owner(graph::VertexId global) const {
    return owner_[global];
  }
  /// Local id of `global` within its owner's subgraph.
  [[nodiscard]] graph::VertexId owner_local(graph::VertexId global) const {
    return owner_local_[global];
  }

  /// Index of `global` in machine m's ghost range (i.e. local id minus
  /// num_local), or kNoGhost when m does not hold it as a ghost. O(log G).
  [[nodiscard]] graph::VertexId ghost_index(MachineId m,
                                            graph::VertexId global) const;

  /// Machines holding machine m's owned vertex `local` as a ghost.
  [[nodiscard]] std::span<const MachineId> mirror_holders(
      MachineId m, graph::VertexId local) const {
    const MirrorIndex& idx = mirrors_[m];
    return {idx.holders.data() + idx.offsets[local],
            idx.holders.data() + idx.offsets[local + 1]};
  }

 private:
  struct MirrorIndex {
    std::vector<std::uint64_t> offsets;  // num_local + 1
    std::vector<MachineId> holders;
  };

  std::vector<partition::Subgraph> subs_;
  std::vector<partition::PartId> owner_;
  std::vector<graph::VertexId> owner_local_;
  std::vector<MirrorIndex> mirrors_;
};

}  // namespace bpart::dist
