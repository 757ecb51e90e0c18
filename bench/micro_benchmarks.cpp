// Google-benchmark micro-benchmarks for the substrate hot paths: graph
// generation, CSR construction, partitioner throughput and walk stepping.
// These are per-operation costs, complementing the paper-figure benches
// (which report simulated application time).
#include <benchmark/benchmark.h>

#include <numeric>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "partition/registry.hpp"
#include "walk/apps.hpp"
#include "walk/walk_engine.hpp"
#include "engine/pagerank.hpp"
#include "graph/reorder.hpp"
#include "partition/rebalance.hpp"

namespace {

using namespace bpart;

graph::EdgeList rmat_edges(unsigned scale) {
  graph::RmatConfig cfg;
  cfg.scale = scale;
  cfg.edge_factor = 16;
  return graph::rmat(cfg);
}

const graph::Graph& bench_graph() {
  static const graph::Graph g = [] {
    graph::CommunityGraphConfig cfg;
    cfg.num_vertices = 1 << 14;
    cfg.avg_degree = 16;
    cfg.num_communities = 64;
    return graph::Graph::from_edges_symmetric(
        graph::community_scale_free(cfg));
  }();
  return g;
}

void BM_RmatGeneration(benchmark::State& state) {
  const auto scale = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rmat_edges(scale));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (16LL << scale));
}
BENCHMARK(BM_RmatGeneration)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_CommunityGeneration(benchmark::State& state) {
  graph::CommunityGraphConfig cfg;
  cfg.num_vertices = static_cast<graph::VertexId>(state.range(0));
  cfg.avg_degree = 16;
  cfg.num_communities = cfg.num_vertices / 256;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::community_scale_free(cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_CommunityGeneration)
    ->Arg(1 << 13)
    ->Arg(1 << 15)
    ->Unit(benchmark::kMillisecond);

void BM_CsrConstruction(benchmark::State& state) {
  const auto edges = rmat_edges(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::Graph::from_edges(edges));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_CsrConstruction)->Arg(12)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_Partitioner(benchmark::State& state, const std::string& algo) {
  const auto& g = bench_graph();
  const auto partitioner = partition::create(algo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner->partition(g, 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK_CAPTURE(BM_Partitioner, chunk_v, "chunk-v")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Partitioner, chunk_e, "chunk-e")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Partitioner, hash, "hash")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Partitioner, fennel, "fennel")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Partitioner, bpart, "bpart")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Partitioner, ldg, "ldg")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Partitioner, bisect, "bisect")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Partitioner, multilevel, "multilevel")
    ->Unit(benchmark::kMillisecond);

void BM_WalkSteps(benchmark::State& state, const std::string& app_name) {
  const auto& g = bench_graph();
  const auto parts = partition::create("chunk-v")->partition(g, 8);
  const auto app = walk::create_walk_app(app_name);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto report = walk::run_walks(g, parts, *app, {});
    steps += report.total_steps;
    benchmark::DoNotOptimize(report.total_steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK_CAPTURE(BM_WalkSteps, simple, "simple-rw")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WalkSteps, node2vec, "node2vec")
    ->Unit(benchmark::kMillisecond);

void BM_Rebalance(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto base = partition::create("fennel")->partition(g, 8);
  for (auto _ : state) {
    partition::Partition p = base;
    const auto stats = partition::rebalance(g, p);
    benchmark::DoNotOptimize(stats.moves);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_Rebalance)->Unit(benchmark::kMillisecond);

void BM_DegreeReorder(benchmark::State& state) {
  const auto& g = bench_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::apply_permutation(g, graph::degree_order(g)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_DegreeReorder)->Unit(benchmark::kMillisecond);

void BM_PageRankIteration(benchmark::State& state) {
  const auto& g = bench_graph();
  const auto parts = partition::create("bpart")->partition(g, 8);
  engine::PageRankConfig cfg;
  cfg.iterations = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::pagerank(g, parts, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_PageRankIteration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
