#include "partition/bisection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace bpart::partition {

namespace {

/// Two-way split state over a vertex subset. side[i] indexes `subset`.
struct Split {
  std::vector<std::uint8_t> side;       // per subset index: 0 or 1
  double v[2] = {0, 0};                 // vertex loads
  double e[2] = {0, 0};                 // edge loads (out-degrees)
};

class Bisector {
 public:
  Bisector(const graph::Graph& g, const BisectionConfig& cfg)
      : g_(g), cfg_(cfg), subset_index_(g.num_vertices(), kNotInSubset) {}

  /// Split `subset` into two sides with target fraction `fl` (side 0) in
  /// both dimensions, low cut. Returns per-subset-index side flags.
  std::vector<std::uint8_t> bisect(const std::vector<graph::VertexId>& subset,
                                   double fl);

 private:
  static constexpr std::uint32_t kNotInSubset = 0xffffffffu;

  [[nodiscard]] double degree(graph::VertexId v) const {
    return static_cast<double>(g_.out_degree(v));
  }

  /// Neighbors of v (both directions) inside the subset, by side.
  void count_sides(graph::VertexId v, const Split& s, double out[2]) const {
    out[0] = out[1] = 0;
    g_.for_each_neighbor(v, [&](graph::VertexId u, unsigned times) {
      const std::uint32_t idx = subset_index_[u];
      if (idx != kNotInSubset) out[s.side[idx]] += times;
    });
  }

  const graph::Graph& g_;
  const BisectionConfig& cfg_;
  std::vector<std::uint32_t> subset_index_;
};

std::vector<std::uint8_t> Bisector::bisect(
    const std::vector<graph::VertexId>& subset, double fl) {
  const std::size_t n = subset.size();
  for (std::size_t i = 0; i < n; ++i)
    subset_index_[subset[i]] = static_cast<std::uint32_t>(i);

  // --- Init: weighted stream into two pieces (roughly 50/50) -------------
  const Partition init = greedy_stream_partition(
      g_, subset, 2, StreamConfig{.balance_weight_c = cfg_.stream_c});
  Split s;
  s.side.resize(n);
  double total_v = 0, total_e = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const graph::VertexId v = subset[i];
    const auto side = static_cast<std::uint8_t>(init[v] == 1 ? 1 : 0);
    s.side[i] = side;
    s.v[side] += 1;
    s.e[side] += degree(v);
    total_v += 1;
    total_e += degree(v);
  }
  const double target_v[2] = {fl * total_v, (1 - fl) * total_v};
  const double target_e[2] = {fl * total_e, (1 - fl) * total_e};
  const double tau = cfg_.balance_threshold;

  auto overload = [&](int side) {
    const double dv = (s.v[side] - target_v[side]) /
                      std::max(target_v[side], 1.0);
    const double de = (s.e[side] - target_e[side]) /
                      std::max(target_e[side], 1.0);
    return std::max(dv, de);
  };

  // --- Shift phase: drain both sides toward their targets -----------------
  // The weighted-stream init leaves the two sides *inversely* imbalanced
  // (one vertex-heavy, one edge-heavy), so no pairwise-max criterion can
  // make progress: any single move pushes the destination's own overloaded
  // dimension. Instead minimize the SUM of positive overloads — a potential
  // that strictly decreases under the asymmetric exchanges (one hub one
  // way, several leaves back) that untangle the two dimensions.
  auto positive_overload_sum = [&] {
    return std::max(overload(0), 0.0) + std::max(overload(1), 0.0);
  };
  constexpr unsigned kMaxShiftSweeps = 64;
  for (unsigned sweep = 0; sweep < kMaxShiftSweeps; ++sweep) {
    if (std::max(overload(0), overload(1)) <= tau) break;
    std::uint64_t moved = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double before = positive_overload_sum();
      if (before <= tau) break;
      const int src = s.side[i];
      const int dst = 1 - src;
      const graph::VertexId v = subset[i];
      const double d = degree(v);
      const double src_new =
          std::max((s.v[src] - 1 - target_v[src]) /
                       std::max(target_v[src], 1.0),
                   (s.e[src] - d - target_e[src]) /
                       std::max(target_e[src], 1.0));
      const double dst_new =
          std::max((s.v[dst] + 1 - target_v[dst]) /
                       std::max(target_v[dst], 1.0),
                   (s.e[dst] + d - target_e[dst]) /
                       std::max(target_e[dst], 1.0));
      const double after =
          std::max(src_new, 0.0) + std::max(dst_new, 0.0);
      if (after >= before - 1e-12) continue;
      s.side[i] = static_cast<std::uint8_t>(dst);
      s.v[src] -= 1;
      s.e[src] -= d;
      s.v[dst] += 1;
      s.e[dst] += d;
      ++moved;
    }
    if (moved == 0) break;
  }

  // --- Refinement: FM-lite sweeps, balance-band preserving ---------------
  for (unsigned sweep = 0; sweep < cfg_.refine_sweeps; ++sweep) {
    std::uint64_t moved = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const int src = s.side[i];
      const int dst = 1 - src;
      const graph::VertexId v = subset[i];
      double by_side[2];
      count_sides(v, s, by_side);
      if (by_side[dst] <= by_side[src]) continue;  // no cut gain
      const double d = degree(v);
      const double dst_dv = (s.v[dst] + 1 - target_v[dst]) /
                            std::max(target_v[dst], 1.0);
      const double dst_de = (s.e[dst] + d - target_e[dst]) /
                            std::max(target_e[dst], 1.0);
      if (dst_dv > tau || dst_de > tau) continue;  // would unbalance
      s.side[i] = static_cast<std::uint8_t>(dst);
      s.v[src] -= 1;
      s.e[src] -= d;
      s.v[dst] += 1;
      s.e[dst] += d;
      ++moved;
    }
    if (moved == 0) break;
  }

  for (graph::VertexId v : subset) subset_index_[v] = kNotInSubset;
  return std::move(s.side);
}

void recurse(Bisector& bisector, const std::vector<graph::VertexId>& subset,
             PartId k, PartId offset, Partition& out) {
  if (subset.empty()) return;
  if (k == 1) {
    for (graph::VertexId v : subset) out.assign(v, offset);
    return;
  }
  const PartId kl = k / 2 + (k % 2);  // left takes the ceiling
  const double fl = static_cast<double>(kl) / static_cast<double>(k);
  const auto side = bisector.bisect(subset, fl);
  std::vector<graph::VertexId> left, right;
  left.reserve(subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i)
    (side[i] == 0 ? left : right).push_back(subset[i]);
  recurse(bisector, left, kl, offset, out);
  recurse(bisector, right, k - kl, offset + kl, out);
}

}  // namespace

Partition RecursiveBisection::partition(const graph::Graph& g,
                                        PartId k) const {
  BPART_CHECK(k >= 1);
  const graph::VertexId n = g.num_vertices();
  Partition p(n, k);
  if (n == 0) return p;

  std::vector<graph::VertexId> all(n);
  for (graph::VertexId v = 0; v < n; ++v) all[v] = v;
  Bisector bisector(g, cfg_);
  recurse(bisector, all, k, 0, p);
  BPART_CHECK_MSG(p.fully_assigned(), "bisection left vertices unassigned");
  return p;
}

}  // namespace bpart::partition
