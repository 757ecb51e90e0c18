#include "walk/ppr_estimate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "partition/chunk.hpp"
#include "util/check.hpp"

namespace bpart::walk {
namespace {

using graph::EdgeList;
using graph::Graph;

Graph lollipop() {
  // Clique {0..4} plus a path 4-5-6-7: PPR from 0 concentrates in the
  // clique and decays down the path.
  EdgeList el;
  for (graph::VertexId a = 0; a < 5; ++a)
    for (graph::VertexId b = a + 1; b < 5; ++b) el.add_undirected(a, b);
  el.add_undirected(4, 5);
  el.add_undirected(5, 6);
  el.add_undirected(6, 7);
  return Graph::from_edges(el);
}

TEST(ExactPpr, SumsToOne) {
  const Graph g = lollipop();
  const auto pi = exact_ppr(g, 0, 0.15);
  double total = 0;
  for (double x : pi) total += x;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ExactPpr, SourceHasHighestScore) {
  const Graph g = lollipop();
  const auto pi = exact_ppr(g, 0, 0.15);
  EXPECT_EQ(std::max_element(pi.begin(), pi.end()) - pi.begin(), 0);
}

TEST(ExactPpr, DecaysAlongThePath) {
  const Graph g = lollipop();
  const auto pi = exact_ppr(g, 0, 0.15);
  EXPECT_GT(pi[5], pi[6]);
  EXPECT_GT(pi[6], pi[7]);
}

TEST(EstimatePpr, MatchesExactOnSmallGraph) {
  const Graph g = lollipop();
  const auto parts = partition::ChunkV().partition(g, 2);
  PprConfig cfg;
  cfg.num_walks = 200000;
  cfg.top_k = 8;
  cfg.seed = 11;
  const auto est = estimate_ppr(g, parts, 0, cfg);
  const auto exact = exact_ppr(g, 0, cfg.stop_prob);

  ASSERT_EQ(est.top.size(), 8u);
  for (const auto& entry : est.top)
    EXPECT_NEAR(entry.score, exact[entry.vertex], 0.01)
        << "vertex " << entry.vertex;
}

TEST(EstimatePpr, TopListSortedDescending) {
  const Graph g = lollipop();
  const auto parts = partition::ChunkV().partition(g, 2);
  const auto est =
      estimate_ppr(g, parts, 0, {.num_walks = 20000, .exec = {}});
  for (std::size_t i = 1; i < est.top.size(); ++i)
    EXPECT_GE(est.top[i - 1].score, est.top[i].score);
}

TEST(EstimatePpr, SourceTopsTheList) {
  const Graph g = lollipop();
  const auto parts = partition::ChunkV().partition(g, 2);
  const auto est =
      estimate_ppr(g, parts, 0, {.num_walks = 20000, .exec = {}});
  ASSERT_FALSE(est.top.empty());
  EXPECT_EQ(est.top[0].vertex, 0u);
}

TEST(EstimatePpr, DeterministicForSeed) {
  const Graph g = lollipop();
  const auto parts = partition::ChunkV().partition(g, 2);
  PprConfig cfg;
  cfg.num_walks = 5000;
  const auto a = estimate_ppr(g, parts, 2, cfg);
  const auto b = estimate_ppr(g, parts, 2, cfg);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].vertex, b.top[i].vertex);
    EXPECT_DOUBLE_EQ(a.top[i].score, b.top[i].score);
  }
}

TEST(EstimatePpr, ValidatesInputs) {
  const Graph g = lollipop();
  const auto parts = partition::ChunkV().partition(g, 2);
  EXPECT_THROW(estimate_ppr(g, parts, 99, {}), CheckError);
  PprConfig bad;
  bad.stop_prob = 0.0;
  EXPECT_THROW(estimate_ppr(g, parts, 0, bad), CheckError);
}

TEST(EstimatePpr, PathEndSourceMatchesExactTopVertex) {
  // Starting at the path end (vertex 7, degree 1) every move funnels
  // through vertex 6, which legitimately accumulates the most mass — the
  // estimator must agree with the exact solver about that.
  const Graph g = lollipop();
  const auto parts = partition::ChunkV().partition(g, 2);
  const auto est =
      estimate_ppr(g, parts, 7, {.num_walks = 50000, .exec = {}});
  const auto exact = exact_ppr(g, 7, 0.15);
  ASSERT_FALSE(est.top.empty());
  const auto exact_top = static_cast<graph::VertexId>(
      std::max_element(exact.begin(), exact.end()) - exact.begin());
  EXPECT_EQ(est.top[0].vertex, exact_top);
}

}  // namespace
}  // namespace bpart::walk
