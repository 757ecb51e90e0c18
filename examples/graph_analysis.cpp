// graph_analysis — structural analysis of any graph the library can load:
// size, degree statistics, a log-scale degree histogram (the scale-free
// fingerprint that motivates the paper), and connected components computed
// two ways (sequential BFS and the distributed engine) as a cross-check.
//
// Usage:
//   graph_analysis --graph=friendster
//   graph_analysis --file=edges.txt --symmetrize
#include <cstdio>
#include <iostream>

#include "engine/components.hpp"
#include "graph/analysis.hpp"
#include "graph/datasets.hpp"
#include "graph/io.hpp"
#include "partition/chunk.hpp"
#include "util/options.hpp"

using namespace bpart;

int main(int argc, char** argv) {
  const Options opts(argc, argv);

  graph::Graph g;
  if (opts.has("file")) {
    graph::EdgeList edges = graph::load_text_edges(opts.get("file", ""));
    g = opts.get_bool("symmetrize", false)
            ? graph::Graph::from_edges_symmetric(std::move(edges))
            : graph::Graph::from_edges(edges);
  } else {
    g = graph::build_dataset(
        graph::dataset_spec(opts.get("graph", "twitter")));
  }

  const graph::GraphStats stats = graph::analyze(g);
  std::printf("vertices:        %u\n", stats.num_vertices);
  std::printf("edges:           %llu\n",
              static_cast<unsigned long long>(stats.num_edges));
  std::printf("avg degree:      %.2f\n", stats.avg_degree);
  std::printf("max out-degree:  %llu\n",
              static_cast<unsigned long long>(stats.max_out_degree));
  std::printf("max in-degree:   %llu\n",
              static_cast<unsigned long long>(stats.max_in_degree));
  std::printf("isolated:        %u\n", stats.isolated_vertices);
  std::printf("degree gini:     %.3f\n", stats.degree_gini);
  std::printf("log-log slope:   %.2f (steeply negative => scale-free)\n",
              stats.power_law_slope);
  std::printf("symmetric:       %s\n\n", stats.symmetric ? "yes" : "no");

  std::printf("out-degree histogram (log2 buckets):\n%s\n",
              graph::degree_histogram(g).render(44).c_str());

  const auto sequential = graph::connected_components(g);
  const auto distributed = engine::connected_components(
      g, partition::ChunkV().partition(g, 4));
  std::printf("components (sequential BFS):       %u\n",
              graph::count_components(sequential));
  std::printf("components (distributed HashMin):  %u  [%zu BSP iterations]\n",
              distributed.num_components,
              distributed.run.iterations.size());
  return 0;
}
