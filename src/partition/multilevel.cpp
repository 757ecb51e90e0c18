#include "partition/multilevel.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace bpart::partition {

namespace {

using graph::VertexId;

/// Weighted graph used on the coarsening hierarchy. CSR with per-edge and
/// per-vertex weights; symmetric by construction.
struct WGraph {
  std::vector<std::uint64_t> offsets;   // n+1
  std::vector<VertexId> targets;
  std::vector<std::uint32_t> eweights;
  std::vector<std::uint32_t> vweights;  // n

  [[nodiscard]] VertexId n() const {
    return static_cast<VertexId>(vweights.size());
  }
  [[nodiscard]] std::uint64_t total_vweight() const {
    return std::accumulate(vweights.begin(), vweights.end(),
                           std::uint64_t{0});
  }
};

WGraph from_graph(const graph::Graph& g) {
  WGraph w;
  const VertexId n = g.num_vertices();
  w.offsets.resize(static_cast<std::size_t>(n) + 1);
  w.offsets[0] = 0;
  // Treat the graph as undirected: out+in neighbors merged. For the
  // symmetric social graphs used in the evaluation these coincide.
  std::vector<std::pair<VertexId, std::uint32_t>> row;
  for (VertexId v = 0; v < n; ++v) {
    row.clear();
    g.for_each_neighbor(v, [&](VertexId u, unsigned) {
      if (u != v) row.emplace_back(u, 1);
    });
    std::sort(row.begin(), row.end());
    // Merge duplicates (u appearing in both directions) into one edge of
    // weight 1 — we do not double-count a symmetric pair.
    std::size_t added = 0;
    for (std::size_t i = 0; i < row.size();) {
      std::size_t j = i;
      while (j < row.size() && row[j].first == row[i].first) ++j;
      w.targets.push_back(row[i].first);
      w.eweights.push_back(1);
      ++added;
      i = j;
    }
    w.offsets[static_cast<std::size_t>(v) + 1] =
        w.offsets[v] + added;
  }
  w.vweights.assign(n, 1);
  return w;
}

/// One size-constrained label-propagation clustering pass.
std::vector<VertexId> label_propagation(const WGraph& g,
                                        std::uint64_t max_cluster_weight,
                                        unsigned iterations,
                                        Xoshiro256& rng) {
  const VertexId n = g.n();
  std::vector<VertexId> label(n);
  std::iota(label.begin(), label.end(), VertexId{0});
  std::vector<std::uint64_t> cluster_weight(n);
  for (VertexId v = 0; v < n; ++v) cluster_weight[v] = g.vweights[v];

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});

  // Scatter buffer for per-label neighbor weight.
  std::vector<std::uint64_t> gain(n, 0);
  std::vector<VertexId> touched;

  for (unsigned it = 0; it < iterations; ++it) {
    // Shuffle visiting order each sweep (standard LP practice).
    for (VertexId i = n; i > 1; --i) {
      const auto j = static_cast<VertexId>(rng.bounded(i));
      std::swap(order[i - 1], order[j]);
    }
    std::uint64_t moves = 0;
    for (VertexId v : order) {
      touched.clear();
      for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        const VertexId lbl = label[g.targets[e]];
        if (gain[lbl] == 0) touched.push_back(lbl);
        gain[lbl] += g.eweights[e];
      }
      VertexId best = label[v];
      std::uint64_t best_gain = gain[best];  // stay unless strictly better
      for (VertexId lbl : touched) {
        if (lbl == label[v]) continue;
        if (cluster_weight[lbl] + g.vweights[v] > max_cluster_weight)
          continue;
        if (gain[lbl] > best_gain) {
          best_gain = gain[lbl];
          best = lbl;
        }
      }
      if (best != label[v]) {
        cluster_weight[label[v]] -= g.vweights[v];
        cluster_weight[best] += g.vweights[v];
        label[v] = best;
        ++moves;
      }
      for (VertexId lbl : touched) gain[lbl] = 0;
    }
    if (moves == 0) break;
  }
  return label;
}

/// Contract clusters into a coarser WGraph. Returns the coarse graph and
/// fills `coarse_of` with the fine->coarse vertex map.
WGraph contract(const WGraph& g, const std::vector<VertexId>& label,
                std::vector<VertexId>& coarse_of) {
  const VertexId n = g.n();
  // Densify labels.
  std::vector<VertexId> dense(n, graph::kInvalidVertex);
  VertexId next = 0;
  coarse_of.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    VertexId lbl = label[v];
    if (dense[lbl] == graph::kInvalidVertex) dense[lbl] = next++;
    coarse_of[v] = dense[lbl];
  }
  const VertexId cn = next;

  WGraph cg;
  cg.vweights.assign(cn, 0);
  for (VertexId v = 0; v < n; ++v) cg.vweights[coarse_of[v]] += g.vweights[v];

  // Aggregate edges per coarse vertex with a reusable hash map.
  std::vector<std::vector<std::pair<VertexId, std::uint32_t>>> rows(cn);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId cv = coarse_of[v];
    for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const VertexId cu = coarse_of[g.targets[e]];
      if (cu == cv) continue;  // internal edge disappears
      rows[cv].emplace_back(cu, g.eweights[e]);
    }
  }
  cg.offsets.resize(static_cast<std::size_t>(cn) + 1);
  cg.offsets[0] = 0;
  for (VertexId cv = 0; cv < cn; ++cv) {
    auto& row = rows[cv];
    std::sort(row.begin(), row.end());
    std::size_t added = 0;
    for (std::size_t i = 0; i < row.size();) {
      std::size_t j = i;
      std::uint64_t wsum = 0;
      while (j < row.size() && row[j].first == row[i].first) {
        wsum += row[j].second;
        ++j;
      }
      cg.targets.push_back(row[i].first);
      cg.eweights.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(wsum, 0xffffffffULL)));
      ++added;
      i = j;
    }
    cg.offsets[static_cast<std::size_t>(cv) + 1] = cg.offsets[cv] + added;
    row.clear();
    row.shrink_to_fit();
  }
  return cg;
}

/// Greedy graph growing on the coarsest level: grow parts by BFS from the
/// heaviest unassigned vertex until each reaches its vertex-weight budget.
std::vector<PartId> initial_partition(const WGraph& g, PartId k,
                                      double epsilon) {
  const VertexId n = g.n();
  const std::uint64_t total = g.total_vweight();
  const double target = static_cast<double>(total) / k;
  const double limit = (1.0 + epsilon) * target;

  std::vector<PartId> part(n, kUnassigned);
  std::vector<VertexId> by_weight(n);
  std::iota(by_weight.begin(), by_weight.end(), VertexId{0});
  std::sort(by_weight.begin(), by_weight.end(), [&](VertexId a, VertexId b) {
    return g.vweights[a] > g.vweights[b];
  });

  std::vector<VertexId> frontier;
  std::size_t seed_cursor = 0;
  for (PartId p = 0; p + 1 < k; ++p) {
    double weight = 0;
    frontier.clear();
    while (weight < target) {
      VertexId v = graph::kInvalidVertex;
      if (!frontier.empty()) {
        v = frontier.back();
        frontier.pop_back();
        if (part[v] != kUnassigned) continue;
      } else {
        while (seed_cursor < by_weight.size() &&
               part[by_weight[seed_cursor]] != kUnassigned)
          ++seed_cursor;
        if (seed_cursor >= by_weight.size()) break;
        v = by_weight[seed_cursor];
      }
      if (weight + g.vweights[v] > limit && weight > 0) {
        if (frontier.empty()) break;
        continue;
      }
      part[v] = p;
      weight += g.vweights[v];
      for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        const VertexId u = g.targets[e];
        if (part[u] == kUnassigned) frontier.push_back(u);
      }
    }
  }
  for (VertexId v = 0; v < n; ++v)
    if (part[v] == kUnassigned) part[v] = k - 1;
  return part;
}

/// Boundary local search: move a vertex to the neighboring part with the
/// highest positive cut gain, subject to the vertex-weight balance limit.
void refine(const WGraph& g, std::vector<PartId>& part, PartId k,
            double epsilon, unsigned iterations) {
  const VertexId n = g.n();
  const std::uint64_t total = g.total_vweight();
  const double limit = (1.0 + epsilon) * static_cast<double>(total) / k;

  std::vector<std::uint64_t> part_weight(k, 0);
  for (VertexId v = 0; v < n; ++v) part_weight[part[v]] += g.vweights[v];

  std::vector<std::uint64_t> conn(k, 0);
  std::vector<PartId> touched;
  for (unsigned it = 0; it < iterations; ++it) {
    std::uint64_t moves = 0;
    for (VertexId v = 0; v < n; ++v) {
      touched.clear();
      for (std::uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        const PartId pu = part[g.targets[e]];
        if (conn[pu] == 0) touched.push_back(pu);
        conn[pu] += g.eweights[e];
      }
      const PartId own = part[v];
      PartId best = own;
      std::uint64_t best_conn = conn[own];
      for (PartId cand : touched) {
        if (cand == own) continue;
        if (static_cast<double>(part_weight[cand] + g.vweights[v]) > limit)
          continue;
        if (conn[cand] > best_conn) {
          best_conn = conn[cand];
          best = cand;
        }
      }
      if (best != own) {
        part_weight[own] -= g.vweights[v];
        part_weight[best] += g.vweights[v];
        part[v] = best;
        ++moves;
      }
      for (PartId t : touched) conn[t] = 0;
    }
    if (moves == 0) break;
  }
}

}  // namespace

Partition Multilevel::partition(const graph::Graph& g, PartId k) const {
  BPART_CHECK(k >= 1);
  const VertexId n = g.num_vertices();
  Partition result(n, k);
  if (n == 0) return result;
  if (k == 1) {
    for (VertexId v = 0; v < n; ++v) result.assign(v, 0);
    return result;
  }

  Xoshiro256 rng(cfg_.seed);

  // --- Coarsening ---------------------------------------------------------
  std::vector<WGraph> levels;
  std::vector<std::vector<VertexId>> maps;  // maps[i]: level i -> level i+1
  levels.push_back(from_graph(g));
  const VertexId floor_size =
      std::max<VertexId>(cfg_.coarse_limit, 2 * k);
  while (levels.back().n() > floor_size) {
    const WGraph& cur = levels.back();
    const std::uint64_t max_cluster =
        std::max<std::uint64_t>(1, cur.total_vweight() / (3ULL * k));
    auto label =
        label_propagation(cur, max_cluster, cfg_.lp_iterations, rng);
    std::vector<VertexId> coarse_of;
    WGraph coarse = contract(cur, label, coarse_of);
    if (coarse.n() >= cur.n() * 9 / 10) break;  // stalled
    LOG_DEBUG << "multilevel coarsen: " << cur.n() << " -> " << coarse.n();
    maps.push_back(std::move(coarse_of));
    levels.push_back(std::move(coarse));
  }

  // --- Initial partition on the coarsest level ----------------------------
  std::vector<PartId> part =
      initial_partition(levels.back(), k, cfg_.epsilon);
  refine(levels.back(), part, k, cfg_.epsilon, cfg_.refine_iterations);

  // --- Uncoarsen + refine --------------------------------------------------
  for (std::size_t lvl = maps.size(); lvl-- > 0;) {
    const WGraph& fine = levels[lvl];
    std::vector<PartId> fine_part(fine.n());
    for (VertexId v = 0; v < fine.n(); ++v) fine_part[v] = part[maps[lvl][v]];
    part = std::move(fine_part);
    refine(fine, part, k, cfg_.epsilon, cfg_.refine_iterations);
  }

  for (VertexId v = 0; v < n; ++v) result.assign(v, part[v]);
  return result;
}

}  // namespace bpart::partition
