// Extension — measured execution vs the cost model. Runs the dist:: runtime
// (real threads, real barriers, typed channels) for PageRank, CC, SSSP and
// random walks over every registered partitioner on a >= 1M-edge generated
// social graph, and prints the measured compute-time skew (max/avg of
// per-machine compute seconds summed over supersteps — the Fig. 12/15
// metric) and waiting ratio (Fig. 13 metric) next to the cost model's
// prediction for the same partition. The paper's claim this validates:
// BPart's two-dimensional balance keeps measured skew at or below Hash's,
// while also cutting the bytes actually shipped.
#include "common.hpp"

#include <algorithm>
#include <numeric>

#include "dist/components.hpp"
#include "dist/pagerank.hpp"
#include "dist/sssp.hpp"
#include "engine/components.hpp"
#include "engine/pagerank.hpp"
#include "engine/sssp.hpp"
#include "graph/generators.hpp"
#include "obs/timeline.hpp"
#include "partition/registry.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "walk/apps.hpp"
#include "walk/dist_walk.hpp"

using namespace bpart;

namespace {

double skew(const std::vector<double>& per_machine) {
  if (per_machine.empty()) return 0;
  const double total =
      std::accumulate(per_machine.begin(), per_machine.end(), 0.0);
  if (total <= 0) return 0;
  const double avg = total / static_cast<double>(per_machine.size());
  return *std::max_element(per_machine.begin(), per_machine.end()) / avg;
}

struct AppRun {
  cluster::RunReport measured;
  cluster::RunReport model;
  double seconds = 0;  ///< Wall-clock of the measured run.
  /// Total measured compute seconds (summed over machines) of a second run
  /// with 2 exec workers per machine — the per-machine compute on real
  /// threads. 0 for walk, which bypasses the exec core.
  double compute_mt = 0;
};

double total_compute(const cluster::RunReport& r) {
  const auto per_machine = r.compute_seconds_per_machine();
  return std::accumulate(per_machine.begin(), per_machine.end(), 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto k = static_cast<partition::PartId>(opts.get_int("parts", 8));
  bench::report().set_name("dist_runtime");

  graph::CommunityGraphConfig gcfg;
  gcfg.num_vertices =
      static_cast<graph::VertexId>(65536 * dataset_scale());
  gcfg.avg_degree = 18.0;
  gcfg.seed = 11;
  const graph::Graph g =
      graph::Graph::from_edges_symmetric(graph::community_scale_free(gcfg));
  LOG_INFO << "dist-runtime graph: " << g.num_vertices() << " vertices, "
           << g.num_edges() << " directed edges, " << k << " machines";

  Table table({"algorithm", "app", "machines", "skew_measured", "skew_model",
               "wait_ratio_measured", "wait_ratio_model",
               "compute_measured_mt", "mb_sent", "seconds"});
  dist::DistOptions mt_opts;
  mt_opts.exec.threads = 2;
  for (const std::string& algo : partition::all_algorithms()) {
    const partition::Partition parts = bench::run_partitioner(g, algo, k);

    auto app = [&](const std::string& name) -> AppRun {
      AppRun r;
      Timer timer;
      if (name == "pagerank") {
        r.measured = dist::pagerank(g, parts).run;
        r.seconds = timer.seconds();
        r.model = engine::pagerank(g, parts).run;
        r.compute_mt = total_compute(
            dist::pagerank(g, parts, {}, dist::PrMode::kPull, mt_opts).run);
      } else if (name == "cc") {
        r.measured = dist::connected_components(g, parts).run;
        r.seconds = timer.seconds();
        r.model = engine::connected_components(g, parts).run;
        r.compute_mt =
            total_compute(dist::connected_components(g, parts, mt_opts).run);
      } else if (name == "sssp") {
        r.measured = dist::sssp(g, parts, 0).run;
        r.seconds = timer.seconds();
        r.model = engine::sssp(g, parts, 0).run;
        r.compute_mt =
            total_compute(dist::sssp(g, parts, 0, {}, mt_opts).run);
      } else {  // walk: |V| four-step walkers, the Fig. 13 workload
        walk::ThreadedWalkConfig wcfg;
        r.measured = walk::run_simple_walks_dist(g, parts, wcfg).run;
        r.seconds = timer.seconds();
        walk::WalkConfig mcfg;
        r.model =
            walk::run_walks(g, parts, walk::SimpleRandomWalk(wcfg.length),
                            mcfg)
                .run;
      }
      return r;
    };

    bench::report().add_quality(algo, partition::evaluate(g, parts));
    for (const std::string app_name : {"pagerank", "cc", "sssp", "walk"}) {
      // Tags every timeline run begun under this algo/app (measured and
      // the exec-threaded rerun) so bpart_prof.py can group by workload.
      obs::ScopedTimelineLabel tl_label(algo + "/" + app_name);
      const AppRun r = app(app_name);
      bench::report().add_run(algo + "/" + app_name + "/measured", r.measured);
      bench::report().add_run(algo + "/" + app_name + "/model", r.model);
      table.row()
          .cell(algo)
          .cell(app_name)
          .cell(static_cast<int>(k))
          .cell(skew(r.measured.compute_seconds_per_machine()))
          .cell(skew(r.model.compute_seconds_per_machine()))
          .cell(r.measured.wait_ratio())
          .cell(r.model.wait_ratio())
          .cell(r.compute_mt)
          .cell(static_cast<double>(r.measured.total_bytes_sent()) / 1e6)
          .cell(r.seconds);
    }
  }
  bench::emit(
      "Extension: measured dist runtime vs cost model (skew, waiting, bytes)",
      table, "ext_dist_runtime");
  return 0;
}
