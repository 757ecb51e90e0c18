// cluster_playground — a tour of the cluster substrate itself: runs
// PageRank under two partitions twice — on the simulated BSP cluster (cost
// model) and on the measured dist runtime (real threads, barriers and
// channels) — and prints both per-iteration timelines on the same axes
// (who computed how long, who waited).
//
// Usage: cluster_playground [--graph=twitter] [--parts=8]
#include <cstdio>

#include "dist/pagerank.hpp"
#include "engine/pagerank.hpp"
#include "graph/datasets.hpp"
#include "partition/registry.hpp"
#include "util/options.hpp"

using namespace bpart;

namespace {

void timeline(const std::string& label, const cluster::RunReport& run) {
  std::printf("\n%s: %.3fs, wait ratio %.3f\n", label.c_str(),
              run.total_seconds(), run.wait_ratio());
  const std::size_t show = std::min<std::size_t>(run.iterations.size(), 3);
  for (std::size_t it = 0; it < show; ++it) {
    const auto& iter = run.iterations[it];
    std::printf("  iter %zu:", it);
    for (const auto& m : iter.machines)
      std::printf(" [%.1fms+%.1fms wait]", m.compute_seconds * 1e3,
                  m.wait_seconds * 1e3);
    std::printf("\n");
  }
  if (run.iterations.size() > show)
    std::printf("  ... %zu more iterations\n", run.iterations.size() - show);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const graph::Graph g =
      graph::build_dataset(graph::dataset_spec(opts.get("graph", "twitter")));
  const auto k = static_cast<partition::PartId>(opts.get_int("parts", 8));

  for (const char* algo : {"chunk-v", "bpart"}) {
    const auto parts = partition::create(algo)->partition(g, k);
    timeline(std::string("PageRank under ") + algo + ", simulated",
             engine::pagerank(g, parts).run);
    timeline(std::string("PageRank under ") + algo + ", measured",
             dist::pagerank(g, parts).run);
  }
  return 0;
}
