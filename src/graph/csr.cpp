#include "graph/csr.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace bpart::graph {

namespace {

/// Edges per build worker: a smaller share costs more to start a thread
/// for than it saves, so small graphs build inline.
constexpr std::size_t kGrainEdges = std::size_t{1} << 16;

/// `requested` workers (0 means thread_count()), capped so each one gets
/// at least kGrainEdges of the `edges` a build scans.
unsigned build_workers(unsigned requested, std::size_t edges) {
  const unsigned want = requested != 0 ? requested : thread_count();
  return static_cast<unsigned>(
      std::clamp<std::size_t>(edges / kGrainEdges, 1, want));
}

/// Vertex boundaries cutting [0, n) into `parts` ranges (range t is
/// [bounds[t], bounds[t+1])) of about equal edge count, by bisecting the
/// offsets: a degree-ordered graph keeps its hubs at the low ids, where
/// equal vertex ranges would hand one worker most of the edges.
std::vector<VertexId> edge_balanced_bounds(std::span<const EdgeId> offsets,
                                           unsigned parts) {
  const EdgeId m = offsets.back();
  std::vector<VertexId> bounds(parts + 1,
                               static_cast<VertexId>(offsets.size() - 1));
  bounds[0] = 0;
  for (unsigned t = 1; t < parts; ++t)
    bounds[t] = static_cast<VertexId>(
        std::lower_bound(offsets.begin(), offsets.end(), m * t / parts) -
        offsets.begin());
  return bounds;
}

/// Runs fn(lo, hi) on every range of `bounds`, one thread per range.
void for_each_range(const std::vector<VertexId>& bounds,
                    const std::function<void(VertexId, VertexId)>& fn) {
  const auto parts = static_cast<unsigned>(bounds.size() - 1);
  parallel_for(0, parts, parts, [&](std::uint64_t a, std::uint64_t b) {
    for (auto t = a; t < b; ++t) fn(bounds[t], bounds[t + 1]);
  });
}

// The builders below are counting sorts over a *stream*: a callable that
// calls fn(key, neighbor) once per adjacency entry, always in the same
// order. They are owner-computes: each worker owns a range of keys,
// replays the whole stream and handles only its own keys, so no two
// workers touch one slot (no atomics, no per-thread histograms) and every
// run holds its entries in stream order at any worker count. The price is
// that each of the T workers reads all m entries of every pass.

/// CSR offsets (length n + 1) counting the keys of `stream`.
template <typename Stream>
std::vector<EdgeId> count_keys(VertexId n, unsigned workers,
                               const Stream& stream) {
  // Degrees are unknown yet, so the count splits the ids evenly.
  std::vector<VertexId> bounds(workers + 1);
  for (unsigned t = 0; t <= workers; ++t)
    bounds[t] = static_cast<VertexId>(std::uint64_t{n} * t / workers);
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  for_each_range(bounds, [&](VertexId lo, VertexId hi) {
    const VertexId width = hi - lo;
    stream([&](VertexId key, VertexId) {
      if (key - lo < width) ++offsets[key + 1];
    });
  });
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  return offsets;
}

/// Places the neighbors of `stream` into the runs `offsets` lays out, in
/// stream order, over key ranges of equal edge count. With kDedup, an
/// entry equal to the last one placed in its run is dropped. Returns each
/// run's end.
template <bool kDedup = false, typename Stream>
std::vector<EdgeId> place_keys(std::span<const EdgeId> offsets,
                               std::span<VertexId> targets, unsigned workers,
                               const Stream& stream) {
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for_each_range(edge_balanced_bounds(offsets, workers),
                 [&](VertexId lo, VertexId hi) {
    const VertexId width = hi - lo;
    stream([&](VertexId key, VertexId nbr) {
      if (key - lo >= width) return;
      if constexpr (kDedup) {
        if (cursor[key] != offsets[key] && targets[cursor[key] - 1] == nbr)
          return;
      }
      targets[cursor[key]++] = nbr;
    });
  });
  return cursor;
}

/// The stream of a CSR side's transpose: (target, source) for every
/// entry, sources ascending — so a run placed from it comes out sorted.
auto transposed(std::span<const EdgeId> offsets,
                std::span<const VertexId> targets) {
  return [offsets, targets](auto&& fn) {
    const auto n = static_cast<VertexId>(offsets.size() - 1);
    for (VertexId x = 0; x < n; ++x)
      for (EdgeId e = offsets[x]; e < offsets[x + 1]; ++e) fn(targets[e], x);
  };
}

}  // namespace

/// Finishes a CSR from its out-side, whose runs may be in any order: the
/// in-side is placed from the out-side's transpose, then a directed graph's
/// out-runs are placed again from the in-side's transpose — a two-digit
/// LSD radix sort of the edges that leaves every run of both sides sorted.
/// A one-sided graph keeps that transpose as its side instead: the sorted
/// out-side on a symmetric input, and, counted from the entries it places,
/// a valid CSR (never a write past a run) on one that is not.
void Graph::sort_by_transposing(unsigned workers) {
  in_offsets_ = count_keys(num_vertices(), workers,
                           transposed(out_offsets_, out_targets_));
  in_targets_.resize(out_targets_.size());
  place_keys(in_offsets_, in_targets_, workers,
             transposed(out_offsets_, out_targets_));
  if (one_sided_) {
    out_offsets_ = std::exchange(in_offsets_, {});
    out_targets_ = std::exchange(in_targets_, {});
  } else {
    place_keys(out_offsets_, out_targets_, workers,
               transposed(in_offsets_, in_targets_));
  }
}

Graph Graph::from_edges(const EdgeList& edges, unsigned workers) {
  BPART_SPAN("ingest/csr_build", "vertices",
             static_cast<double>(edges.num_vertices()), "edges",
             static_cast<double>(edges.edges().size()));
  workers = build_workers(workers, edges.size());
  const auto list = [edges = edges.edges()](auto&& fn) {
    for (const Edge& e : edges) fn(e.src, e.dst);
  };
  Graph g;
  g.out_offsets_ = count_keys(edges.num_vertices(), workers, list);
  g.out_targets_.resize(edges.size());
  place_keys(g.out_offsets_, g.out_targets_, workers, list);
  g.sort_by_transposing(workers);
  return g;
}

Graph Graph::from_edges_symmetric(EdgeList edges, unsigned workers) {
  BPART_SPAN("ingest/csr_build", "vertices",
             static_cast<double>(edges.num_vertices()), "edges",
             static_cast<double>(edges.edges().size()));
  workers = build_workers(workers, edges.size());
  const VertexId n = edges.num_vertices();
  const auto both = [edges = edges.edges()](auto&& fn) {
    for (const Edge& e : edges) {
      if (e.src == e.dst) continue;
      fn(e.src, e.dst);
      fn(e.dst, e.src);
    }
  };
  const std::vector<EdgeId> offsets = count_keys(n, workers, both);
  std::vector<VertexId> runs(offsets.back());
  place_keys(offsets, runs, workers, both);
  edges = EdgeList{};  // Read for the last time: free it.

  // `runs` holds both directions of every edge, so its transpose has the
  // same run lengths. Placing from it sorts every run, and a repeated
  // neighbor arrives right after its first copy, so it is dropped there.
  Graph g;
  g.out_targets_.resize(runs.size());
  const std::vector<EdgeId> ends = place_keys</*kDedup=*/true>(
      offsets, g.out_targets_, workers, transposed(offsets, runs));
  runs = {};
  // Close the gaps the duplicates left, moving runs left in place.
  g.out_offsets_.assign(offsets.size(), 0);
  const auto out = g.out_targets_.begin();
  for (VertexId v = 0; v < n; ++v) {
    g.out_offsets_[v + 1] = g.out_offsets_[v] + (ends[v] - offsets[v]);
    if (g.out_offsets_[v] != offsets[v])
      std::copy(out + static_cast<std::ptrdiff_t>(offsets[v]),
                out + static_cast<std::ptrdiff_t>(ends[v]),
                out + static_cast<std::ptrdiff_t>(g.out_offsets_[v]));
  }
  g.out_targets_.resize(g.out_offsets_.back());
  g.out_targets_.shrink_to_fit();
  g.one_sided_ = true;  // Symmetric: v's in-run is its out-run.
  return g;
}

Graph Graph::relabeled(const Graph& g, std::span<const VertexId> perm,
                       unsigned workers) {
  BPART_SPAN("ingest/csr_relabel", "vertices",
             static_cast<double>(g.num_vertices()), "edges",
             static_cast<double>(g.num_edges()));
  workers = build_workers(workers, g.num_edges());
  const auto n = static_cast<VertexId>(perm.size());
  std::vector<VertexId> inv(n);
  for (VertexId v = 0; v < n; ++v) inv[perm[v]] = v;

  // New out-run r is the out-run of inv[r] mapped through perm; the
  // transposes then sort it (and derive a two-sided graph's in-side), as
  // from_edges does.
  Graph h;
  h.one_sided_ = g.one_sided_;
  h.out_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId r = 0; r < n; ++r)
    h.out_offsets_[r + 1] = h.out_offsets_[r] + g.out_degree(inv[r]);
  h.out_targets_.resize(g.num_edges());
  for_each_range(edge_balanced_bounds(h.out_offsets_, workers),
                 [&](VertexId lo, VertexId hi) {
    auto out = h.out_targets_.begin() +
               static_cast<std::ptrdiff_t>(h.out_offsets_[lo]);
    for (VertexId r = lo; r < hi; ++r)
      for (const VertexId u : g.out_neighbors(inv[r])) *out++ = perm[u];
  });
  h.sort_by_transposing(workers);
  return h;
}

namespace {

void validate_adjacency(std::span<const EdgeId> offsets,
                        std::span<const VertexId> targets, const char* which) {
  if (offsets.empty())
    throw std::invalid_argument(std::string(which) + " offsets empty");
  if (offsets.front() != 0)
    throw std::invalid_argument(std::string(which) + " offsets[0] != 0");
  for (std::size_t i = 1; i < offsets.size(); ++i)
    if (offsets[i] < offsets[i - 1])
      throw std::invalid_argument(std::string(which) +
                                  " offsets not monotone");
  if (offsets.back() != targets.size())
    throw std::invalid_argument(std::string(which) +
                                " offsets/targets length mismatch");
  // Every run must ascend (non-decreasing: a directed graph may keep
  // parallel edges); its last target is then its largest, the only one
  // the range check needs.
  const auto n = static_cast<VertexId>(offsets.size() - 1);
  for (VertexId v = 0; v < n; ++v) {
    const auto run = targets.subspan(offsets[v], offsets[v + 1] - offsets[v]);
    if (run.empty()) continue;
    if (!std::is_sorted(run.begin(), run.end()))
      throw std::invalid_argument(std::string(which) +
                                  " adjacency run not sorted");
    if (run.back() >= n)
      throw std::invalid_argument(std::string(which) +
                                  " target out of range");
  }
}

}  // namespace

Graph Graph::from_csr(std::vector<EdgeId> out_offsets,
                      std::vector<VertexId> out_targets,
                      std::vector<EdgeId> in_offsets,
                      std::vector<VertexId> in_targets) {
  Graph g = from_csr(std::move(out_offsets), std::move(out_targets));
  validate_adjacency(in_offsets, in_targets, "in");
  if (g.out_offsets_.size() != in_offsets.size())
    throw std::invalid_argument("out/in vertex counts disagree");
  if (g.out_targets_.size() != in_targets.size())
    throw std::invalid_argument("out/in edge counts disagree");
  g.in_offsets_ = std::move(in_offsets);
  g.in_targets_ = std::move(in_targets);
  g.one_sided_ = false;
  return g;
}

Graph Graph::from_csr(std::vector<EdgeId> offsets,
                      std::vector<VertexId> targets) {
  validate_adjacency(offsets, targets, "out");
  Graph g;
  g.out_offsets_ = std::move(offsets);
  g.out_targets_ = std::move(targets);
  g.one_sided_ = true;
  return g;
}

bool Graph::is_symmetric() const {
  if (one_sided_) return true;
  const VertexId n = num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId u : out_neighbors(v)) {
      const auto nbrs = out_neighbors(u);
      if (!std::binary_search(nbrs.begin(), nbrs.end(), v)) return false;
    }
  }
  return true;
}

std::vector<EdgeId> Graph::out_degrees() const {
  const VertexId n = num_vertices();
  std::vector<EdgeId> deg(n);
  for (VertexId v = 0; v < n; ++v) deg[v] = out_degree(v);
  return deg;
}

}  // namespace bpart::graph
