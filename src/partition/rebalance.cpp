#include "partition/rebalance.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace bpart::partition {

namespace {

struct Loads {
  std::vector<double> vertices;
  std::vector<double> edges;
  double ideal_v = 1;
  double ideal_e = 1;

  [[nodiscard]] double dv(PartId i) const {
    return (vertices[i] - ideal_v) / ideal_v;
  }
  [[nodiscard]] double de(PartId i) const {
    return (edges[i] - ideal_e) / ideal_e;
  }
  /// The paper's bias criterion per part: only overload matters (the
  /// slowest machine sets iteration time).
  [[nodiscard]] double overload(PartId i) const {
    return std::max(dv(i), de(i));
  }
};

}  // namespace

RebalanceStats rebalance(const graph::Graph& g, Partition& p,
                         const RebalanceConfig& cfg) {
  BPART_CHECK_MSG(p.fully_assigned(), "rebalance needs a full assignment");
  BPART_CHECK(g.num_vertices() == p.num_vertices());
  const PartId k = p.num_parts();
  const double tau = cfg.balance_threshold;

  Loads loads;
  loads.vertices = stats::to_doubles(p.vertex_counts());
  loads.edges = stats::to_doubles(p.edge_counts(g));
  loads.ideal_v =
      std::max(static_cast<double>(g.num_vertices()) / k, 1.0);
  loads.ideal_e = std::max(static_cast<double>(g.num_edges()) / k, 1.0);

  RebalanceStats stats;
  stats.initial_vertex_bias = stats::bias(loads.vertices);
  stats.initial_edge_bias = stats::bias(loads.edges);

  // Members per part, maintained across moves. Order within a part is the
  // rotation order candidates are examined in.
  std::vector<std::vector<graph::VertexId>> members(k);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    members[p[v]].push_back(v);
  std::vector<std::size_t> cursor(k, 0);

  std::vector<std::uint32_t> overlap(k, 0);
  std::vector<PartId> touched;

  // How many member candidates to examine per move. Bounds the per-move
  // cost; the cursor rotates so later moves see fresh candidates.
  constexpr std::size_t kCandidateWindow = 128;
  constexpr double kEps = 1e-9;

  while (stats.moves < cfg.max_moves) {
    // Drain the worst part. Every accepted move strictly lowers
    // max(new source overload, new destination overload) below the current
    // source overload, so the sorted overload vector decreases
    // lexicographically and the loop terminates.
    PartId src = 0;
    for (PartId i = 1; i < k; ++i)
      if (loads.overload(i) > loads.overload(src)) src = i;
    const double src_dev = loads.overload(src);
    if (src_dev <= tau) break;  // balanced by the paper's criterion

    auto& pool = members[src];
    graph::VertexId best_vertex = graph::kInvalidVertex;
    std::size_t best_pool_index = 0;
    PartId best_dst = kUnassigned;
    double best_key = -std::numeric_limits<double>::infinity();

    const std::size_t window = std::min(kCandidateWindow, pool.size());
    for (std::size_t probe = 0; probe < window; ++probe) {
      const std::size_t idx = (cursor[src] + probe) % pool.size();
      const graph::VertexId v = pool[idx];
      const double degree = static_cast<double>(g.out_degree(v));
      const double src_new = std::max(
          (loads.vertices[src] - 1 - loads.ideal_v) / loads.ideal_v,
          (loads.edges[src] - degree - loads.ideal_e) / loads.ideal_e);

      // Cut-awareness: count v's neighbors per part.
      g.for_each_neighbor(v, [&](graph::VertexId u, unsigned times) {
        const PartId pu = p[u];
        if (overlap[pu] == 0) touched.push_back(pu);
        overlap[pu] += times;
      });

      for (PartId dst = 0; dst < k; ++dst) {
        if (dst == src) continue;
        const double dst_new = std::max(
            (loads.vertices[dst] + 1 - loads.ideal_v) / loads.ideal_v,
            (loads.edges[dst] + degree - loads.ideal_e) / loads.ideal_e);
        // Strict progress: the pair must end below the pre-move maximum.
        if (std::max(src_new, dst_new) >= src_dev - kEps) continue;
        // Prefer keeping v next to its neighbors; break ties toward the
        // emptiest destination.
        const double key =
            static_cast<double>(overlap[dst]) - loads.overload(dst);
        if (key > best_key) {
          best_key = key;
          best_vertex = v;
          best_pool_index = idx;
          best_dst = dst;
        }
      }
      for (PartId t : touched) overlap[t] = 0;
      touched.clear();
    }

    if (best_vertex == graph::kInvalidVertex) break;  // stuck: no move helps

    const double degree = static_cast<double>(g.out_degree(best_vertex));
    p.assign(best_vertex, best_dst);
    loads.vertices[src] -= 1;
    loads.edges[src] -= degree;
    loads.vertices[best_dst] += 1;
    loads.edges[best_dst] += degree;
    // Swap-remove from the source pool; append to the destination's.
    pool[best_pool_index] = pool.back();
    pool.pop_back();
    members[best_dst].push_back(best_vertex);
    if (!pool.empty()) cursor[src] = best_pool_index % pool.size();
    ++stats.moves;
  }

  bool balanced = true;
  for (PartId i = 0; i < k; ++i)
    if (loads.overload(i) > tau) balanced = false;
  stats.converged = balanced;
  stats.final_vertex_bias = stats::bias(loads.vertices);
  stats.final_edge_bias = stats::bias(loads.edges);
  return stats;
}

}  // namespace bpart::partition
