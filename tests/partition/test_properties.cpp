// Parameterized property sweeps: invariants every partitioner must satisfy
// on every graph family, for every part count.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "partition/metrics.hpp"
#include "partition/rebalance.hpp"
#include "partition/registry.hpp"
#include "test_graphs.hpp"

namespace bpart::partition {
namespace {

using graph::Graph;

enum class Family { kRmat, kBarabasiAlbert, kErdosRenyi, kWattsStrogatz };

Graph make_graph(Family f) {
  switch (f) {
    case Family::kRmat: {
      graph::RmatConfig cfg;
      cfg.scale = 11;
      cfg.edge_factor = 12;
      return Graph::from_edges_symmetric(graph::rmat(cfg));
    }
    case Family::kBarabasiAlbert: {
      graph::BarabasiAlbertConfig cfg;
      cfg.num_vertices = 2000;
      cfg.attach = 6;
      return Graph::from_edges(graph::barabasi_albert(cfg));
    }
    case Family::kErdosRenyi: {
      graph::ErdosRenyiConfig cfg;
      cfg.num_vertices = 2000;
      cfg.num_edges = 24000;
      return Graph::from_edges_symmetric(graph::erdos_renyi(cfg));
    }
    case Family::kWattsStrogatz: {
      graph::WattsStrogatzConfig cfg;
      cfg.num_vertices = 2000;
      cfg.k = 6;
      cfg.beta = 0.1;
      return Graph::from_edges(graph::watts_strogatz(cfg));
    }
  }
  return Graph{};
}

std::string family_name(Family f) {
  switch (f) {
    case Family::kRmat: return "rmat";
    case Family::kBarabasiAlbert: return "ba";
    case Family::kErdosRenyi: return "er";
    case Family::kWattsStrogatz: return "ws";
  }
  return "?";
}

using Param = std::tuple<std::string, Family, PartId>;

class PartitionerProperty : public ::testing::TestWithParam<Param> {};

TEST_P(PartitionerProperty, ProducesValidPartition) {
  const auto& [algo, family, k] = GetParam();
  const Graph g = make_graph(family);
  const Partition p = create(algo)->partition(g, k);

  // Invariant 1: every vertex assigned to a legal part.
  EXPECT_TRUE(p.fully_assigned());
  EXPECT_EQ(p.num_parts(), k);

  // Invariant 2: counts are conserved — no vertex or edge lost.
  const auto vc = p.vertex_counts();
  const auto ec = p.edge_counts(g);
  EXPECT_EQ(std::accumulate(vc.begin(), vc.end(), std::uint64_t{0}),
            g.num_vertices());
  EXPECT_EQ(std::accumulate(ec.begin(), ec.end(), std::uint64_t{0}),
            g.num_edges());

  // Invariant 3: cut ratio is a valid probability and zero for k=1.
  const double cut = edge_cut_ratio(g, p);
  EXPECT_GE(cut, 0.0);
  EXPECT_LE(cut, 1.0);
  if (k == 1) {
    EXPECT_DOUBLE_EQ(cut, 0.0);
  }

  // Invariant 4: cut matrix totals equal the edge count.
  const auto m = cut_matrix(g, p);
  std::uint64_t total = 0;
  std::uint64_t off_diagonal = 0;
  for (PartId i = 0; i < k; ++i)
    for (PartId j = 0; j < k; ++j) {
      total += m[i][j];
      if (i != j) off_diagonal += m[i][j];
    }
  EXPECT_EQ(total, g.num_edges());
  EXPECT_EQ(off_diagonal, edge_cut_count(g, p));
}

TEST_P(PartitionerProperty, DeterministicAcrossRuns) {
  const auto& [algo, family, k] = GetParam();
  const Graph g = make_graph(family);
  const Partition a = create(algo)->partition(g, k);
  const Partition b = create(algo)->partition(g, k);
  for (graph::VertexId v = 0; v < g.num_vertices(); v += 37)
    ASSERT_EQ(a[v], b[v]) << algo << " unstable at vertex " << v;
}

std::vector<Param> all_params() {
  std::vector<Param> params;
  for (const std::string& algo : all_algorithms())
    for (Family f : {Family::kRmat, Family::kBarabasiAlbert,
                     Family::kErdosRenyi, Family::kWattsStrogatz})
      for (PartId k : {1u, 2u, 5u, 8u})
        params.emplace_back(algo, f, k);
  return params;
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string name = std::get<0>(info.param) + "_" +
                     family_name(std::get<1>(info.param)) + "_k" +
                     std::to_string(std::get<2>(info.param));
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, PartitionerProperty,
                         ::testing::ValuesIn(all_params()), param_name);

TEST(OneSidedScan, MatchesTwoSidedCopy) {
  // Graph::for_each_neighbor scans a one-sided graph's run once with
  // times = 2, where the two-sided copy scans it out then in. Every
  // partitioner, rebalance, both vertex orders that read N(v) and the
  // graph's component labels must come out the same either way.
  const Graph one = testing::social_graph();
  const Graph two = testing::two_sided_copy(one);
  ASSERT_TRUE(one.one_sided());
  ASSERT_FALSE(two.one_sided());
  const auto same = [](const Partition& a, const Partition& b) {
    return std::ranges::equal(a.assignment(), b.assignment());
  };
  for (const std::string& algo : all_algorithms()) {
    const auto partitioner = create(algo);
    EXPECT_TRUE(same(partitioner->partition(one, 8),
                     partitioner->partition(two, 8)))
        << algo;
  }
  Partition a = create("fennel")->partition(one, 8);
  Partition b = a;
  EXPECT_GT(rebalance(one, a).moves, 0u);
  rebalance(two, b);
  EXPECT_TRUE(same(a, b));
  for (const ReorderMode mode : {ReorderMode::kDegree, ReorderMode::kBfs})
    EXPECT_EQ(graph::select_order(one, mode, 17),
              graph::select_order(two, mode, 17))
        << reorder_mode_name(mode);
  EXPECT_EQ(graph::connected_components(one),
            graph::connected_components(two));
}

}  // namespace
}  // namespace bpart::partition
