// Parity gate for the exec core: for EVERY registered partitioner, the
// engines at several exec workers, and the dist runtime's per-machine
// parallel compute, must agree with one-worker engine runs on a hash
// partition — exactly for CC labels and SSSP distances (fixpoints), to
// 1e-10 L-inf for PageRank (the dist runtime sums each destination's local
// and remote contributions separately).
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

namespace bpart::exec {
namespace {

constexpr partition::PartId kMachines = 4;
constexpr unsigned kThreads = 2;

class ExecParity : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    graph::ErdosRenyiConfig er;
    er.num_vertices = 1 << 11;
    er.num_edges = 1 << 14;
    er.seed = 3;
    graph_ =
        new graph::Graph(graph::Graph::from_edges(graph::erdos_renyi(er)));
    const partition::Partition parts =
        partition::create("hash")->partition(*graph_, kMachines);
    engine::PageRankConfig pr_cfg;
    pr_cfg.exec.threads = 1;
    exec::ExecConfig one;
    one.threads = 1;
    engine::SsspConfig ss_cfg;
    ss_cfg.exec.threads = 1;
    pr_ = new engine::PageRankResult(engine::pagerank(*graph_, parts, pr_cfg));
    cc_ = new engine::ComponentsResult(
        engine::connected_components(*graph_, parts, {}, 200, one));
    sssp_ = new engine::SsspResult(engine::sssp(*graph_, parts, 0, ss_cfg));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete pr_;
    delete cc_;
    delete sssp_;
    graph_ = nullptr;
    pr_ = nullptr;
    cc_ = nullptr;
    sssp_ = nullptr;
  }

  static graph::Graph* graph_;
  static engine::PageRankResult* pr_;
  static engine::ComponentsResult* cc_;
  static engine::SsspResult* sssp_;
};

graph::Graph* ExecParity::graph_ = nullptr;
engine::PageRankResult* ExecParity::pr_ = nullptr;
engine::ComponentsResult* ExecParity::cc_ = nullptr;
engine::SsspResult* ExecParity::sssp_ = nullptr;

TEST_P(ExecParity, EngineMatchesSequential) {
  const partition::Partition parts =
      partition::create(GetParam())->partition(*graph_, kMachines);

  engine::PageRankConfig pr_cfg;
  pr_cfg.exec.threads = kThreads;
  const auto pr = engine::pagerank(*graph_, parts, pr_cfg);
  double max_err = 0;
  for (graph::VertexId v = 0; v < graph_->num_vertices(); ++v)
    max_err = std::max(max_err, std::abs(pr.rank[v] - pr_->rank[v]));
  EXPECT_LE(max_err, 1e-10);

  ExecConfig ec;
  ec.threads = kThreads;
  const auto cc =
      engine::connected_components(*graph_, parts, {}, 200, ec);
  EXPECT_EQ(cc.label, cc_->label);
  EXPECT_EQ(cc.num_components, cc_->num_components);

  engine::SsspConfig ss_cfg;
  ss_cfg.exec.threads = kThreads;
  const auto ss = engine::sssp(*graph_, parts, 0, ss_cfg);
  EXPECT_EQ(ss.distance, sssp_->distance);
}

TEST_P(ExecParity, DistPerMachineParallelMatchesSequentialEngines) {
  const partition::Partition parts =
      partition::create(GetParam())->partition(*graph_, kMachines);
  dist::DistOptions opts;
  opts.exec.threads = kThreads;

  const auto pr = dist::pagerank(*graph_, parts, {}, dist::PrMode::kPull, opts);
  double max_err = 0;
  for (graph::VertexId v = 0; v < graph_->num_vertices(); ++v)
    max_err = std::max(max_err, std::abs(pr.rank[v] - pr_->rank[v]));
  EXPECT_LE(max_err, 1e-10) << "pull";

  const auto cc = dist::connected_components(*graph_, parts, opts);
  EXPECT_EQ(cc.label, cc_->label);
  EXPECT_EQ(cc.num_components, cc_->num_components);

  const auto ss = dist::sssp(*graph_, parts, 0, {}, opts);
  EXPECT_EQ(ss.distance, sssp_->distance);
}

INSTANTIATE_TEST_SUITE_P(
    AllPartitioners, ExecParity,
    ::testing::ValuesIn(partition::all_algorithms()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace bpart::exec
