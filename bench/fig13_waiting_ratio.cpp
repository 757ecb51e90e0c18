// Fig. 13 — ratio of total machine waiting time to total running time for
// 5|V| four-step random walks, on 4- and 8-machine clusters. Paper: 1D
// schemes waste ~45-55% (up to 70%) waiting; BPart ~10-20%.
//
// Three columns: wait_ratio is the cost model's prediction (deterministic,
// what the paper's figures are built from); wait_ratio_measured re-runs the
// same workload on the dist:: runtime and reports wall-clock barrier waits.
// On a host with fewer cores than machines the measured ratio compresses
// toward zero (machines serialize instead of waiting), so it is a sanity
// column, not a replacement. compute_measured_mt sources the same story
// from the exec core: total measured per-machine compute seconds of a dist
// PageRank run with 2 exec workers per machine — the partition's compute
// balance told on real intra-machine threads rather than the model.
#include "common.hpp"

#include <numeric>

#include "dist/pagerank.hpp"
#include "walk/apps.hpp"
#include "walk/dist_walk.hpp"

using namespace bpart;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto machine_counts = bench::uint_list_from(opts, "parts", "4,8");
  const auto walks =
      static_cast<unsigned>(opts.get_int("walks-per-vertex", 5));
  const auto steps = static_cast<unsigned>(opts.get_int("steps", 4));

  Table table({"graph", "machines", "algorithm", "wait_ratio",
               "wait_ratio_measured", "compute_measured_mt"});
  dist::DistOptions mt_opts;
  mt_opts.exec.threads = 2;
  for (const std::string& graph_name : bench::graphs_from(opts)) {
    const graph::Graph g = bench::build_graph(graph_name);
    for (unsigned k : machine_counts) {
      for (const std::string algo :
           {"chunk-v", "chunk-e", "fennel", "bpart"}) {
        const auto p = bench::run_partitioner_cached(
            graph_name, g, algo, static_cast<partition::PartId>(k));
        walk::WalkConfig cfg;
        cfg.walks_per_vertex = walks;
        const auto report =
            walk::run_walks(g, p, walk::SimpleRandomWalk(steps), cfg);
        walk::ThreadedWalkConfig dist_cfg;
        dist_cfg.length = steps;
        dist_cfg.walks_per_vertex = walks;
        const auto measured = walk::run_simple_walks_dist(g, p, dist_cfg);
        const auto mt_compute =
            dist::pagerank(g, p, {}, dist::PrMode::kPull, mt_opts)
                .run.compute_seconds_per_machine();
        table.row()
            .cell(graph_name)
            .cell(static_cast<int>(k))
            .cell(algo)
            .cell(report.run.wait_ratio())
            .cell(measured.run.wait_ratio())
            .cell(std::accumulate(mt_compute.begin(), mt_compute.end(), 0.0));
      }
    }
  }
  bench::emit("Fig. 13: waiting time / total running time (random walks)",
              table, "fig13_waiting_ratio");
  return 0;
}
