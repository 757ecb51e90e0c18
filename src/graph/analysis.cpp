#include "graph/analysis.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "util/stats.hpp"

namespace bpart::graph {

GraphStats analyze(const Graph& g) {
  GraphStats s;
  s.num_vertices = g.num_vertices();
  s.num_edges = g.num_edges();
  s.avg_degree = g.avg_degree();
  std::vector<double> degrees;
  degrees.reserve(s.num_vertices);
  for (VertexId v = 0; v < s.num_vertices; ++v) {
    const EdgeId out = g.out_degree(v);
    const EdgeId in = g.in_degree(v);
    s.max_out_degree = std::max(s.max_out_degree, out);
    s.max_in_degree = std::max(s.max_in_degree, in);
    if (out == 0 && in == 0) ++s.isolated_vertices;
    degrees.push_back(static_cast<double>(out));
  }
  s.degree_gini = stats::gini(degrees);
  s.power_law_slope = degree_histogram(g).log_log_slope();
  s.symmetric = g.is_symmetric();
  return s;
}

LogHistogram degree_histogram(const Graph& g) {
  LogHistogram h;
  for (VertexId v = 0; v < g.num_vertices(); ++v) h.add(g.out_degree(v));
  return h;
}

std::vector<VertexId> connected_components(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> label(n, kInvalidVertex);
  std::deque<VertexId> queue;
  VertexId next_label = 0;
  for (VertexId root = 0; root < n; ++root) {
    if (label[root] != kInvalidVertex) continue;
    label[root] = next_label;
    queue.push_back(root);
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      g.for_each_neighbor(v, [&](VertexId u, unsigned) {
        if (label[u] == kInvalidVertex) {
          label[u] = next_label;
          queue.push_back(u);
        }
      });
    }
    ++next_label;
  }
  return label;
}

VertexId count_components(const std::vector<VertexId>& labels) {
  if (labels.empty()) return 0;
  return *std::max_element(labels.begin(), labels.end()) + 1;
}

}  // namespace bpart::graph
