// partition_explorer — the operational tool a user of this library would
// actually run: load a graph (SNAP-style edge list or a named synthetic
// dataset), partition it with any registered algorithm, and print a full
// quality report. Optionally writes the vertex->part assignment in
// partition/io.hpp's format, which partition::load_partition (or a real
// distributed system's loader) reads back.
//
// Usage:
//   partition_explorer --graph=twitter --algo=bpart --parts=8
//   partition_explorer --file=edges.txt --algo=fennel --parts=16
//       --out=assignment.txt --symmetrize (second line of the same command)
//   partition_explorer --graph=friendster --all --parts=8
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "graph/analysis.hpp"
#include "graph/datasets.hpp"
#include "graph/io.hpp"
#include "partition/io.hpp"
#include "partition/metrics.hpp"
#include "partition/registry.hpp"
#include "partition/subgraph.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace bpart;

namespace {

graph::Graph load_graph(const Options& opts) {
  if (opts.has("file")) {
    graph::EdgeList edges = graph::load_text_edges(opts.get("file", ""));
    if (opts.get_bool("symmetrize", false))
      return graph::Graph::from_edges_symmetric(std::move(edges));
    return graph::Graph::from_edges(edges);
  }
  return graph::build_dataset(
      graph::dataset_spec(opts.get("graph", "twitter")));
}

void report(const graph::Graph& g, const std::string& algo,
            partition::PartId k, Table& table) {
  Timer t;
  const partition::Partition p = partition::create(algo)->partition(g, k);
  const double seconds = t.seconds();
  const partition::QualityReport q = partition::evaluate(g, p);
  table.row()
      .cell(algo)
      .cell(q.vertex_summary.bias)
      .cell(q.edge_summary.bias)
      .cell(q.vertex_summary.fairness)
      .cell(q.edge_summary.fairness)
      .cell(q.edge_cut_ratio)
      .cell(partition::min_pairwise_connectivity(g, p))
      .cell(seconds);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  if (opts.get_bool("help", false)) {
    std::puts(
        "partition_explorer --graph=<name>|--file=<path> [--symmetrize]\n"
        "                   --algo=<name>|--all --parts=N [--out=<path>]\n"
        "                   [--subgraphs]\n"
        "algorithms: chunk-v chunk-e hash fennel bpart multilevel\n"
        "datasets:   livejournal twitter friendster");
    return 0;
  }

  const graph::Graph g = load_graph(opts);
  const graph::GraphStats stats = graph::analyze(g);
  std::printf(
      "graph: %u vertices, %llu edges, avg degree %.2f, max out-degree "
      "%llu,\n       %u isolated, degree gini %.3f, %s\n\n",
      stats.num_vertices, static_cast<unsigned long long>(stats.num_edges),
      stats.avg_degree, static_cast<unsigned long long>(stats.max_out_degree),
      stats.isolated_vertices, stats.degree_gini,
      stats.symmetric ? "symmetric" : "directed");

  const auto k = static_cast<partition::PartId>(opts.get_int("parts", 8));
  Table table({"algorithm", "vertex_bias", "edge_bias", "vertex_fairness",
               "edge_fairness", "cut_ratio", "min_pair_connectivity",
               "seconds"});
  if (opts.get_bool("all", false)) {
    for (const auto& algo : partition::all_algorithms())
      report(g, algo, k, table);
  } else {
    report(g, opts.get("algo", "bpart"), k, table);
  }
  table.print(std::cout);

  if (opts.get_bool("subgraphs", false)) {
    const std::string algo =
        opts.get_bool("all", false) ? "bpart" : opts.get("algo", "bpart");
    const partition::Partition p = partition::create(algo)->partition(g, k);
    const auto subs = partition::build_subgraphs(g, p);
    Table st({"machine", "owned_vertices", "ghosts", "local_edges",
              "cut_edges"});
    for (std::size_t m = 0; m < subs.size(); ++m) {
      st.row()
          .cell(static_cast<int>(m))
          .cell(static_cast<std::uint64_t>(subs[m].num_local))
          .cell(static_cast<std::uint64_t>(subs[m].num_ghosts))
          .cell(static_cast<std::uint64_t>(subs[m].local.num_edges()))
          .cell(subs[m].cut_edges);
    }
    std::printf("\nper-machine footprint (%s):\n", algo.c_str());
    st.print(std::cout);
    std::printf("subgraphs verified: %s\n",
                partition::verify_subgraphs(g, p, subs) ? "OK" : "FAILED");
  }

  if (opts.has("out")) {
    const std::string algo =
        opts.get_bool("all", false) ? "bpart" : opts.get("algo", "bpart");
    const std::string out = opts.get("out", "");
    const partition::Partition p = partition::create(algo)->partition(g, k);
    try {
      partition::save_partition(p, out);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("\n%s assignment written to %s\n", algo.c_str(), out.c_str());
  }
  return 0;
}
