#include "partition/ldg.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace bpart::partition {

Partition Ldg::partition(const graph::Graph& g, PartId k) const {
  BPART_CHECK(k >= 1);
  BPART_CHECK(slack_ >= 1.0);
  const graph::VertexId n = g.num_vertices();
  Partition p(n, k);
  if (n == 0) return p;

  const double capacity =
      slack_ * std::ceil(static_cast<double>(n) / static_cast<double>(k));
  std::vector<std::uint64_t> size(k, 0);
  // overlap[i] = |P_i ∩ N(v)| for the current vertex; the k-part scan
  // reads every entry and zeroes it for the next vertex.
  std::vector<std::uint32_t> overlap(k, 0);

  for (graph::VertexId v = 0; v < n; ++v) {
    g.for_each_neighbor(v, [&](graph::VertexId u, unsigned times) {
      const PartId pu = p[u];
      if (pu != kUnassigned) overlap[pu] += times;
    });

    double best_score = -std::numeric_limits<double>::infinity();
    PartId best = 0;
    std::uint64_t best_size = std::numeric_limits<std::uint64_t>::max();
    for (PartId i = 0; i < k; ++i) {
      const std::uint32_t ov = overlap[i];
      overlap[i] = 0;
      const double remaining =
          1.0 - static_cast<double>(size[i]) / capacity;
      if (remaining <= 0.0) continue;
      const double score = static_cast<double>(ov) * remaining;
      // Ties (common when overlap is 0 everywhere) go to the emptiest part
      // — the published LDG tie-break.
      if (score > best_score ||
          (score == best_score && size[i] < best_size)) {
        best_score = score;
        best = i;
        best_size = size[i];
      }
    }
    if (best_score == -std::numeric_limits<double>::infinity()) {
      // Every part at capacity (can only happen with slack == 1 and
      // rounding); fall back to the emptiest.
      for (PartId i = 1; i < k; ++i)
        if (size[i] < size[best]) best = i;
    }
    p.assign(v, best);
    ++size[best];
  }
  return p;
}

}  // namespace bpart::partition
