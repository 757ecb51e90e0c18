#include "dist/dist_graph.hpp"

#include <algorithm>

#include "dist/runtime.hpp"
#include "util/check.hpp"

namespace bpart::dist {

DistGraph::DistGraph(const graph::Graph& g, const partition::Partition& parts,
                     unsigned threads)
    : subs_(partition::build_subgraphs(
          g, parts, resolve_threads(threads, parts.num_parts()))) {
  const graph::VertexId n = g.num_vertices();
  const MachineId machines = num_machines();

  owner_.assign(parts.assignment().begin(), parts.assignment().end());
  owner_local_.assign(n, 0);
  for (MachineId m = 0; m < machines; ++m) {
    const partition::Subgraph& sub = subs_[m];
    for (graph::VertexId lid = 0; lid < sub.num_local; ++lid)
      owner_local_[sub.global_id[lid]] = lid;
  }

  // Invert the ghost tables into the mirror-holder index: machine `holder`
  // keeps `global` as a ghost  =>  global's owner must broadcast value
  // changes to `holder`.
  mirrors_.resize(machines);
  for (MachineId m = 0; m < machines; ++m)
    mirrors_[m].offsets.assign(subs_[m].num_local + 1, 0);
  for (MachineId holder = 0; holder < machines; ++holder) {
    const partition::Subgraph& sub = subs_[holder];
    for (graph::VertexId i = 0; i < sub.num_ghosts; ++i) {
      const graph::VertexId global = sub.global_id[sub.num_local + i];
      ++mirrors_[sub.ghost_owner[i]].offsets[owner_local_[global] + 1];
    }
  }
  for (MachineId m = 0; m < machines; ++m) {
    MirrorIndex& idx = mirrors_[m];
    for (std::size_t i = 1; i < idx.offsets.size(); ++i)
      idx.offsets[i] += idx.offsets[i - 1];
    idx.holders.resize(idx.offsets.back());
  }
  std::vector<std::vector<std::uint64_t>> cursor(machines);
  for (MachineId m = 0; m < machines; ++m)
    cursor[m].assign(mirrors_[m].offsets.begin(),
                     mirrors_[m].offsets.end() - 1);
  for (MachineId holder = 0; holder < machines; ++holder) {
    const partition::Subgraph& sub = subs_[holder];
    for (graph::VertexId i = 0; i < sub.num_ghosts; ++i) {
      const MachineId owner = sub.ghost_owner[i];
      const graph::VertexId local =
          owner_local_[sub.global_id[sub.num_local + i]];
      mirrors_[owner].holders[cursor[owner][local]++] = holder;
    }
  }
}

graph::VertexId DistGraph::ghost_index(MachineId m,
                                       graph::VertexId global) const {
  const partition::Subgraph& sub = subs_[m];
  const auto begin = sub.global_id.begin() + sub.num_local;
  const auto it = std::lower_bound(begin, sub.global_id.end(), global);
  if (it == sub.global_id.end() || *it != global) return kNoGhost;
  return static_cast<graph::VertexId>(it - begin);
}

}  // namespace bpart::dist
