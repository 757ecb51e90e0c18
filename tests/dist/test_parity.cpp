// The acceptance gate for the dist:: runtime: for EVERY registered
// partitioner and several machine counts, the distributed apps must agree
// with the accounting engines — exactly for CC and SSSP (monotone min
// fixpoints), to 1e-10 L-inf for PageRank (double-precision contributions,
// machine-dependent summation order).
#include <gtest/gtest.h>

#include <cmath>

#include "dist/components.hpp"
#include "dist/pagerank.hpp"
#include "dist/sssp.hpp"
#include "engine/components.hpp"
#include "engine/pagerank.hpp"
#include "engine/sssp.hpp"
#include "graph/generators.hpp"
#include "partition/registry.hpp"

namespace bpart::dist {
namespace {

constexpr partition::PartId kMachines = 4;

struct Baselines {
  engine::PageRankResult pr;
  engine::ComponentsResult cc;
  engine::SsspResult sssp;
};

Baselines baselines_for(const graph::Graph& g) {
  // Engine results do not depend on the partition; any one will do.
  const partition::Partition parts =
      partition::create("hash")->partition(g, kMachines);
  Baselines b;
  b.pr = engine::pagerank(g, parts);
  b.cc = engine::connected_components(g, parts);
  b.sssp = engine::sssp(g, parts, /*source=*/0);
  return b;
}

class DistParity : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    // Directed random graph: dangling vertices, asymmetric reachability.
    graph::ErdosRenyiConfig er;
    er.num_vertices = 1 << 11;
    er.num_edges = 1 << 14;
    er.seed = 3;
    random_graph_ =
        new graph::Graph(graph::Graph::from_edges(graph::erdos_renyi(er)));
    random_base_ = new Baselines(baselines_for(*random_graph_));

    // Symmetrized power-law graph: hubs stress the ghost aggregation.
    graph::RmatConfig rm;
    rm.scale = 10;
    rm.edge_factor = 8;
    powerlaw_graph_ = new graph::Graph(
        graph::Graph::from_edges_symmetric(graph::rmat(rm)));
    powerlaw_base_ = new Baselines(baselines_for(*powerlaw_graph_));
  }
  static void TearDownTestSuite() {
    delete random_graph_;
    delete random_base_;
    delete powerlaw_graph_;
    delete powerlaw_base_;
    random_graph_ = powerlaw_graph_ = nullptr;
    random_base_ = powerlaw_base_ = nullptr;
  }

  static void check_parity(const graph::Graph& g, const Baselines& base,
                           const partition::Partition& parts) {
    const engine::PageRankResult got = pagerank(g, parts, {}, PrMode::kPull);
    double max_err = 0;
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
      max_err = std::max(max_err, std::abs(got.rank[v] - base.pr.rank[v]));
    EXPECT_LE(max_err, 1e-10) << "pull PageRank";
    EXPECT_GT(got.run.iterations.size(), 0u);

    const engine::ComponentsResult cc = connected_components(g, parts);
    EXPECT_EQ(cc.label, base.cc.label);
    EXPECT_EQ(cc.num_components, base.cc.num_components);

    const engine::SsspResult ss = sssp(g, parts, /*source=*/0);
    EXPECT_EQ(ss.distance, base.sssp.distance);
  }

  static graph::Graph* random_graph_;
  static graph::Graph* powerlaw_graph_;
  static Baselines* random_base_;
  static Baselines* powerlaw_base_;
};

graph::Graph* DistParity::random_graph_ = nullptr;
graph::Graph* DistParity::powerlaw_graph_ = nullptr;
Baselines* DistParity::random_base_ = nullptr;
Baselines* DistParity::powerlaw_base_ = nullptr;

TEST_P(DistParity, RandomGraph) {
  const partition::Partition parts =
      partition::create(GetParam())->partition(*random_graph_, kMachines);
  check_parity(*random_graph_, *random_base_, parts);
}

TEST_P(DistParity, PowerLawGraph) {
  const partition::Partition parts =
      partition::create(GetParam())->partition(*powerlaw_graph_, kMachines);
  check_parity(*powerlaw_graph_, *powerlaw_base_, parts);
}

TEST_P(DistParity, MachineCountInvariance) {
  // The engine baselines come from 4 parts; one machine (no ghosts), an
  // odd count and more machines than runtime threads must all reproduce
  // them.
  for (const partition::PartId k : {1u, 3u, 8u}) {
    SCOPED_TRACE(::testing::Message() << k << " machines");
    const partition::Partition parts =
        partition::create(GetParam())->partition(*random_graph_, k);
    check_parity(*random_graph_, *random_base_, parts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitioners, DistParity,
    ::testing::ValuesIn(partition::all_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace bpart::dist
