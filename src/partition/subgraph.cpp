#include "partition/subgraph.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <span>

#include "partition/metrics.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace bpart::partition {

namespace {

using graph::EdgeId;
using graph::VertexId;

/// Per-worker scratch over the global id space, reused across the parts
/// one worker builds.
struct Scratch {
  explicit Scratch(VertexId n)
      : marked((static_cast<std::size_t>(n) + 63) / 64, 0),
        slot(std::make_unique_for_overwrite<VertexId[]>(n)) {}

  /// Remote targets of the current part's owned out-edges; the scan that
  /// emits the ghosts clears it for the next part.
  std::vector<std::uint64_t> marked;
  /// Global id -> ghost local id. Only the current part's ghost entries are
  /// written and read, so it never needs clearing.
  std::unique_ptr<VertexId[]> slot;
};

Subgraph build_part(const graph::Graph& g, const Partition& p, PartId part,
                    std::span<const VertexId> owned,
                    std::span<const VertexId> local_in_owner,
                    Scratch& scratch) {
  Subgraph sub;
  sub.num_local = static_cast<VertexId>(owned.size());
  sub.global_id.assign(owned.begin(), owned.end());

  // Ghosts, ascending by global id: mark, then scan the bitmap.
  for (const VertexId v : owned)
    for (const VertexId u : g.out_neighbors(v))
      if (p[u] != part) scratch.marked[u / 64] |= std::uint64_t{1} << (u % 64);
  for (std::size_t w = 0; w < scratch.marked.size(); ++w) {
    for (std::uint64_t bits = scratch.marked[w]; bits != 0; bits &= bits - 1) {
      const auto u = static_cast<VertexId>(w * 64 + std::countr_zero(bits));
      scratch.slot[u] = static_cast<VertexId>(sub.global_id.size());
      sub.global_id.push_back(u);
      sub.ghost_owner.push_back(p[u]);
    }
    scratch.marked[w] = 0;
  }
  sub.num_ghosts = static_cast<VertexId>(sub.ghost_owner.size());
  const std::size_t num_vertices = sub.global_id.size();

  // Out-CSR: in-part targets, then ghost targets, each in global order —
  // already sorted by local id, since every Graph's runs ascend.
  std::vector<EdgeId> out_offsets(num_vertices + 1, 0);
  for (VertexId lid = 0; lid < sub.num_local; ++lid)
    out_offsets[lid + 1] = out_offsets[lid] + g.out_degree(owned[lid]);
  std::fill(out_offsets.begin() + sub.num_local + 1, out_offsets.end(),
            out_offsets[sub.num_local]);
  std::vector<VertexId> out_targets(out_offsets.back());
  for (VertexId lid = 0; lid < sub.num_local; ++lid) {
    const auto run = g.out_neighbors(owned[lid]);
    auto at = out_targets.begin() +
              static_cast<std::ptrdiff_t>(out_offsets[lid]);
    for (const VertexId u : run)
      if (p[u] == part) *at++ = local_in_owner[u];
    const auto ghosts_begin = at;
    for (const VertexId u : run)
      if (p[u] != part) *at++ = scratch.slot[u];
    sub.cut_edges += static_cast<std::uint64_t>(at - ghosts_begin);
  }

  // In-CSR: one counting sort over sources in ascending local id.
  std::vector<EdgeId> in_offsets(num_vertices + 1, 0);
  for (const VertexId t : out_targets) ++in_offsets[t + 1];
  std::partial_sum(in_offsets.begin(), in_offsets.end(), in_offsets.begin());
  std::vector<EdgeId> cursor(in_offsets.begin(), in_offsets.end() - 1);
  std::vector<VertexId> in_targets(out_targets.size());
  for (VertexId lid = 0; lid < sub.num_local; ++lid)
    for (EdgeId e = out_offsets[lid]; e < out_offsets[lid + 1]; ++e)
      in_targets[cursor[out_targets[e]]++] = lid;

  sub.local = graph::Graph::from_csr(std::move(out_offsets),
                                     std::move(out_targets),
                                     std::move(in_offsets),
                                     std::move(in_targets));
  return sub;
}

}  // namespace

std::vector<Subgraph> build_subgraphs(const graph::Graph& g,
                                      const Partition& p, unsigned workers) {
  BPART_CHECK(g.num_vertices() == p.num_vertices());
  BPART_CHECK_MSG(p.fully_assigned(), "subgraphs need a full assignment");
  const PartId k = p.num_parts();
  const VertexId n = g.num_vertices();

  // Bucket owned vertices by part (one counting pass): each bucket stays
  // ascending by global id, and local_in_owner[v] is v's rank in its part.
  std::vector<VertexId> start(static_cast<std::size_t>(k) + 1, 0);
  for (VertexId v = 0; v < n; ++v) ++start[p[v] + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<VertexId> owned(n);
  std::vector<VertexId> local_in_owner(n);
  std::vector<VertexId> cursor(start.begin(), start.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    const PartId part = p[v];
    local_in_owner[v] = cursor[part] - start[part];
    owned[cursor[part]++] = v;
  }

  std::vector<Subgraph> subs(k);
  parallel_for(0, k, workers, [&](std::uint64_t lo, std::uint64_t hi) {
    Scratch scratch(n);
    for (auto part = static_cast<PartId>(lo); part < hi; ++part)
      subs[part] = build_part(
          g, p, part,
          std::span<const VertexId>(owned).subspan(
              start[part], start[part + 1] - start[part]),
          local_in_owner, scratch);
  });
  return subs;
}

bool verify_subgraphs(const graph::Graph& g, const Partition& p,
                      const std::vector<Subgraph>& subs) {
  if (subs.size() != p.num_parts()) return false;

  std::uint64_t total_edges = 0;
  std::uint64_t total_owned = 0;
  std::uint64_t total_cut = 0;
  std::vector<VertexId> mapped;
  std::vector<VertexId> expected;
  for (PartId part = 0; part < subs.size(); ++part) {
    const Subgraph& sub = subs[part];
    const graph::Graph& local = sub.local;
    if (sub.global_id.size() !=
        static_cast<std::size_t>(sub.num_local) + sub.num_ghosts)
      return false;
    if (local.num_vertices() != sub.global_id.size()) return false;
    if (sub.ghost_owner.size() != sub.num_ghosts) return false;
    total_owned += sub.num_local;
    total_cut += sub.cut_edges;

    for (VertexId lid = 0; lid < sub.global_id.size(); ++lid) {
      const VertexId global = sub.global_id[lid];
      if (global >= g.num_vertices()) return false;
      const bool ghost = sub.is_ghost(lid);
      // Owned ids, then ghost ids, each strictly ascending by global id.
      if (lid != 0 && lid != sub.num_local && global <= sub.global_id[lid - 1])
        return false;
      if (!ghost && p[global] != part) return false;
      if (ghost && p[global] == part) return false;
      if (ghost && sub.ghost_owner[lid - sub.num_local] != p[global])
        return false;
      // Ghosts hold no out-edges locally.
      if (ghost && local.out_degree(lid) != 0) return false;
      if (ghost) continue;
      // Owned vertices carry their full global adjacency, renumbered (runs
      // are sorted by local id: Graph::from_csr checks that).
      const auto run = local.out_neighbors(lid);
      mapped.clear();
      for (const VertexId t : run) mapped.push_back(sub.global_id[t]);
      const auto want = g.out_neighbors(global);
      expected.assign(want.begin(), want.end());
      std::sort(mapped.begin(), mapped.end());
      std::sort(expected.begin(), expected.end());
      if (mapped != expected) return false;
      total_edges += run.size();
    }

    // The in-CSR is the out-CSR's transpose, sources ascending per run.
    const auto in_offsets = local.in_offsets();
    const auto in_targets = local.in_targets();
    std::vector<EdgeId> cursor(in_offsets.begin(), in_offsets.end() - 1);
    for (VertexId src = 0; src < local.num_vertices(); ++src)
      for (const VertexId t : local.out_neighbors(src)) {
        if (cursor[t] == in_offsets[t + 1] || in_targets[cursor[t]] != src)
          return false;
        ++cursor[t];
      }
    for (VertexId v = 0; v < local.num_vertices(); ++v)
      if (cursor[v] != in_offsets[v + 1]) return false;
  }
  if (total_owned != g.num_vertices()) return false;
  if (total_edges != g.num_edges()) return false;
  if (total_cut != edge_cut_count(g, p)) return false;
  return true;
}

}  // namespace bpart::partition
