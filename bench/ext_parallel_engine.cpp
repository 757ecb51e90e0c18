// Extension — intra-machine parallel execution core (DESIGN.md §10). Two
// sections on the >= 1M-edge generated social graph:
//
// 1. Engine compute speedup: PageRank (10 iterations) and CC (to
//    convergence) on the exec core at 1/2/4/8 workers, speedup over the
//    1-worker run. The steals column is the work-stealing traffic of the
//    min-time repeat (obs "exec.steals" delta); the identical column
//    asserts the determinism contract — PR ranks and CC labels/count
//    bitwise-equal to the 1-worker run at every thread count.
//
// 2. Push vs pull crossover: one PR-style contribution pass over synthetic
//    frontiers of growing density (1/64 .. all vertices), push (sparse
//    scatter through ScatterShards) against pull (dense per-destination
//    gather). Sparse frontiers favor push, dense ones pull — the beamer
//    column shows what choose_pull() would pick at each density. For these
//    rows identical=1 means the pull gather is bitwise thread-count
//    independent and the push scatter agrees with it to 1e-9.
#include "common.hpp"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/components.hpp"
#include "engine/pagerank.hpp"
#include "exec/edge_map.hpp"
#include "exec/frontier.hpp"
#include "exec/scheduler.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

using namespace bpart;

namespace {

struct Timed {
  double seconds = 0;
  std::uint64_t steals = 0;  ///< exec.steals delta of the min-time repeat.
};

/// Min-of-`repeats` wall-clock with the steal-counter delta of the repeat
/// that set the minimum.
template <typename Fn>
Timed time_best(int repeats, Fn&& fn) {
  Timed best;
  for (int r = 0; r < repeats; ++r) {
    const std::uint64_t steals0 = obs::counter("exec.steals").value();
    Timer timer;
    fn();
    const double s = timer.seconds();
    const std::uint64_t steals = obs::counter("exec.steals").value() - steals0;
    if (r == 0 || s < best.seconds) best = {s, steals};
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto k = static_cast<partition::PartId>(opts.get_int("parts", 8));
  const auto repeats = static_cast<int>(opts.get_int("repeats", 5));
  bench::report().set_name("parallel_engine");

  // Same graph as ext_dist_runtime/ext_parallel_stream: ~2.3M directed
  // edges at scale 1.
  graph::CommunityGraphConfig gcfg;
  gcfg.num_vertices = static_cast<graph::VertexId>(65536 * dataset_scale());
  gcfg.avg_degree = 18.0;
  gcfg.seed = 11;
  const graph::Graph g =
      graph::Graph::from_edges_symmetric(graph::community_scale_free(gcfg));
  const graph::VertexId n = g.num_vertices();
  LOG_INFO << "parallel-engine graph: " << n << " vertices, " << g.num_edges()
           << " directed edges, k=" << k;
  const partition::Partition parts = bench::run_partitioner(g, "bpart", k);

  Table table({"app", "mode", "threads", "frontier_pct", "seconds", "speedup",
               "steals", "identical", "beamer_pull"});
  auto add_row = [&](const std::string& app, const std::string& mode,
                     unsigned threads, double frontier_pct, const Timed& t,
                     double base_seconds, bool identical, bool beamer_pull) {
    table.row()
        .cell(app)
        .cell(mode)
        .cell(static_cast<int>(threads))
        .cell(frontier_pct)
        .cell(t.seconds)
        .cell(t.seconds > 0 ? base_seconds / t.seconds : 0.0)
        .cell(static_cast<int>(t.steals))
        .cell(identical ? 1 : 0)
        .cell(beamer_pull ? 1 : 0);
  };

  // --- engine compute at 1/2/4/8 workers ----------------------------------
  // The 1-worker run anchors both the speedup and the bitwise contract.
  {
    engine::PageRankResult ref;
    double t1_seconds = 0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      engine::PageRankConfig cfg;
      cfg.exec.threads = threads;
      engine::PageRankResult last;
      const Timed t = time_best(
          repeats, [&] { last = engine::pagerank(g, parts, cfg); });
      if (threads == 1) {
        ref = last;
        t1_seconds = t.seconds;
      }
      add_row("pagerank", "exec/t" + std::to_string(threads), threads, 100.0,
              t, t1_seconds, last.rank == ref.rank, false);
    }
  }
  {
    engine::ComponentsResult ref;
    double t1_seconds = 0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      exec::ExecConfig ec;
      ec.threads = threads;
      engine::ComponentsResult last;
      const Timed t = time_best(repeats, [&] {
        last = engine::connected_components(g, parts, {}, 200, ec);
      });
      if (threads == 1) {
        ref = last;
        t1_seconds = t.seconds;
      }
      add_row("cc", "exec/t" + std::to_string(threads), threads, 100.0, t,
              t1_seconds,
              last.label == ref.label &&
                  last.num_components == ref.num_components,
              false);
    }
  }

  // --- push vs pull crossover over frontier density ------------------------
  {
    constexpr unsigned kThreads = 4;
    constexpr std::uint32_t kChunk = 4096;
    exec::Executor ex(kThreads);
    exec::Executor ex1(1);
    const auto in_plan =
        exec::ChunkScheduler::over_range(g.in_offsets(), 0, n, kChunk);

    // PR-style unit contribution: rank mass 1/deg per out-edge.
    std::vector<double> contrib(n);
    for (graph::VertexId v = 0; v < n; ++v)
      contrib[v] = 1.0 / static_cast<double>(std::max<graph::EdgeId>(
                             g.out_degree(v), 1));

    exec::ScatterShards<double> shards;
    std::vector<double> acc(n);
    auto push_pass = [&](exec::Executor& e, const exec::ChunkScheduler& plan,
                         const exec::Frontier& frontier) {
      acc.assign(n, 0.0);
      shards.reset(e.threads(), n);
      exec::process_edges_push(
          e, plan, frontier, [&](unsigned w, graph::VertexId u) {
            for (const graph::VertexId t : g.out_neighbors(u))
              shards.add(w, t, contrib[u]);
          });
      shards.merge([&](std::size_t i, double v) { acc[i] += v; });
    };
    std::vector<double> gathered(n);
    auto pull_pass = [&](exec::Executor& e, const exec::Frontier& frontier) {
      exec::process_edges_pull(
          e, in_plan, [&](unsigned, std::uint32_t, graph::VertexId v) {
            double sum = 0;
            for (const graph::VertexId u : g.in_neighbors(v))
              if (frontier.contains(u)) sum += contrib[u];
            gathered[v] = sum;
          });
    };

    for (const unsigned stride : {64u, 16u, 4u, 1u}) {
      exec::Frontier frontier(n);
      for (graph::VertexId v = 0; v < n; v += stride)
        frontier.add(v, g.out_degree(v));
      const double pct = 100.0 / static_cast<double>(stride);
      const bool beamer = exec::choose_pull(frontier.edge_mass(),
                                            frontier.size(), g.num_edges(), n);
      const auto list = frontier.active();
      const auto push_plan = exec::ChunkScheduler::over_list(
          list.size(),
          [&](std::size_t i) { return g.out_degree(list[i]); }, kChunk);

      // Reference + determinism/agreement checks, untimed: the 1-thread
      // pull gather is the bitwise reference; the multi-thread gather must
      // match it exactly, the sharded push scatter to 1e-9.
      pull_pass(ex1, frontier);
      const std::vector<double> pull_ref = gathered;
      pull_pass(ex, frontier);
      const bool pull_identical = gathered == pull_ref;
      push_pass(ex, push_plan, frontier);
      double push_err = 0;
      for (graph::VertexId v = 0; v < n; ++v)
        push_err = std::max(push_err, std::abs(acc[v] - pull_ref[v]));

      const std::string suffix = "/f" + std::to_string(stride);
      const Timed tp = time_best(
          repeats, [&] { push_pass(ex, push_plan, frontier); });
      add_row("edge-map", "push" + suffix, kThreads, pct, tp, 0.0,
              push_err <= 1e-9, beamer);
      const Timed tl = time_best(repeats, [&] { pull_pass(ex, frontier); });
      add_row("edge-map", "pull" + suffix, kThreads, pct, tl, 0.0,
              pull_identical, beamer);
    }
  }

  bench::emit(
      "Extension: parallel execution core (engine speedup, push/pull "
      "crossover)",
      table, "ext_parallel_engine");
  return 0;
}
