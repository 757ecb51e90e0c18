#include "vcut/placers.hpp"

#include <algorithm>
#include <vector>

#include "exec/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "vcut/hdrf_state.hpp"

namespace bpart::vcut {

namespace {

/// Pairs per scoring chunk of the buffered placer.
constexpr std::uint32_t kScoreChunk = 256;

std::uint64_t pair_capacity(std::size_t num_pairs, PartId k, double slack) {
  const auto ceil_avg =
      (static_cast<std::uint64_t>(num_pairs) + k - 1) / std::max<PartId>(k, 1);
  return std::max<std::uint64_t>(
      ceil_avg, static_cast<std::uint64_t>(slack * static_cast<double>(
                                                       ceil_avg)));
}

}  // namespace

EdgePartition RandomEdgePlacement::partition(const graph::Graph& g,
                                             PartId k) const {
  BPART_CHECK(k >= 1);
  BPART_SPAN("vcut/place", "edges", static_cast<double>(g.num_edges()));
  EdgePartition ep(g.num_edges(), k);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.out_neighbors(v);
    for (graph::EdgeId i = 0; i < nbrs.size(); ++i) {
      // Canonicalize so (u,v) and (v,u) land on the same part — a vertex-cut
      // treats the two directions of a symmetric edge as one edge.
      const auto a = std::min<graph::VertexId>(v, nbrs[i]);
      const auto b = std::max<graph::VertexId>(v, nbrs[i]);
      const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
      ep.assign(g.out_edge_index(v, i),
                static_cast<PartId>(splitmix64(key ^ seed_) % k));
    }
  }
  return ep;
}

EdgePartition DegreeBasedHashing::partition(const graph::Graph& g,
                                            PartId k) const {
  BPART_CHECK(k >= 1);
  BPART_SPAN("vcut/place", "edges", static_cast<double>(g.num_edges()));
  EdgePartition ep(g.num_edges(), k);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.out_neighbors(v);
    for (graph::EdgeId i = 0; i < nbrs.size(); ++i) {
      const graph::VertexId u = nbrs[i];
      // Hash the LOWER-degree endpoint: the hub's edges spread over parts
      // (replicating the hub), the leaf's stay together (one copy). Ties
      // break on vertex id so both directions of a symmetric edge agree.
      const auto dv = g.out_degree(v) + g.in_degree(v);
      const auto du = g.out_degree(u) + g.in_degree(u);
      const graph::VertexId anchor =
          dv != du ? (dv < du ? v : u) : std::min(v, u);
      ep.assign(g.out_edge_index(v, i),
                static_cast<PartId>(
                    splitmix64(static_cast<std::uint64_t>(anchor) ^ seed_) %
                    k));
    }
  }
  return ep;
}

EdgePartition Hdrf::partition(const graph::Graph& g, PartId k) const {
  const auto pairs = canonical_pairs(g);
  BPART_SPAN("vcut/place", "pairs", static_cast<double>(pairs.size()));
  detail::HdrfState st(g.num_vertices(), k, cfg_);
  EdgePartition ep(g.num_edges(), k);
  for (const EdgePair& pair : pairs) {
    st.bump_degrees(pair);
    const PartId best = st.best_part(pair);
    ep.assign_pair(pair, best);
    st.place(pair, best);
  }
  obs::counter("vcut.pairs_placed").add(pairs.size());
  return ep;
}

EdgePartition BufferedHdrf::partition(const graph::Graph& g, PartId k) const {
  BPART_CHECK(cfg_.batch_size > 0);
  const auto pairs = canonical_pairs(g);
  const std::size_t num_pairs = pairs.size();
  BPART_SPAN("vcut/place", "pairs", static_cast<double>(num_pairs));
  detail::HdrfState st(g.num_vertices(), k, cfg_.hdrf);
  EdgePartition ep(g.num_edges(), k);

  const std::size_t batch = cfg_.batch_size;
  const std::uint64_t cap = pair_capacity(num_pairs, k, cfg_.capacity_slack);
  const unsigned threads = thread_count(cfg_.threads);

  std::uint64_t fallbacks = 0;
  auto commit = [&](const EdgePair& pair, PartId choice) {
    st.bump_degrees(pair);
    // The parallel score saw batch-boundary loads; re-check the cap against
    // the exact live load so no part ever exceeds it.
    if (st.load[choice] + 1 > cap) {
      choice = st.least_loaded();
      ++fallbacks;
    }
    ep.assign_pair(pair, choice);
    st.place(pair, choice);
  };

  // Warm-up batch, placed sequentially with live state: the first pairs
  // have no replica history, so batching them would degenerate to the
  // balance term alone.
  const std::size_t warm = std::min(batch, num_pairs);
  for (std::size_t i = 0; i < warm; ++i) commit(pairs[i], st.best_part(pairs[i]));

  exec::Executor ex(warm < num_pairs ? threads : 1);

  std::vector<PartId> choices(batch);
  std::uint64_t batches = 0;
  for (std::size_t lo = warm; lo < num_pairs; lo += batch) {
    const std::size_t hi = std::min(lo + batch, num_pairs);
    ++batches;
    // Score phase: st is frozen (mutations only happen in the commit loop
    // below), so every choice is a pure function of the batch-boundary
    // snapshot — independent of chunking, hence of the thread count.
    const auto plan = exec::ChunkScheduler::over_items(hi - lo, kScoreChunk);
    ex.run(plan, [&](unsigned, std::uint32_t, std::uint32_t clo,
                     std::uint32_t chi) {
      for (std::uint32_t j = clo; j < chi; ++j)
        choices[j] = st.best_part(pairs[lo + j]);
    });
    // Commit phase: stream order, exact state.
    for (std::size_t j = lo; j < hi; ++j) commit(pairs[j], choices[j - lo]);
  }

  obs::counter("vcut.pairs_placed").add(num_pairs);
  obs::counter("vcut.batches").add(batches);
  if (fallbacks != 0) obs::counter("vcut.commit_fallbacks").add(fallbacks);
  return ep;
}

}  // namespace bpart::vcut
