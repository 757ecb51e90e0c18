#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/analysis.hpp"
#include "graph/csr.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace bpart::graph {
namespace {

TEST(Rmat, ProducesRequestedSize) {
  RmatConfig cfg;
  cfg.scale = 10;
  cfg.edge_factor = 8;
  const EdgeList el = rmat(cfg);
  EXPECT_EQ(el.num_vertices(), 1u << 10);
  EXPECT_EQ(el.size(), 8u << 10);
}

TEST(Rmat, DeterministicForSeed) {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.seed = 123;
  const EdgeList a = rmat(cfg);
  const EdgeList b = rmat(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Rmat, SeedsChangeTheGraph) {
  RmatConfig cfg;
  cfg.scale = 8;
  cfg.seed = 1;
  const EdgeList a = rmat(cfg);
  cfg.seed = 2;
  const EdgeList b = rmat(cfg);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) ++diff;
  EXPECT_GT(diff, a.size() / 2);
}

TEST(Rmat, SkewedQuadrantsGiveSkewedDegrees) {
  // The whole premise of the paper: R-MAT with Graph500 parameters is
  // scale-free, so degree inequality (gini) must be high; a uniform R-MAT
  // (a=b=c=d=0.25, which is Erdős–Rényi-like) must be much flatter.
  RmatConfig skewed;
  skewed.scale = 12;
  skewed.edge_factor = 16;
  const Graph gs = Graph::from_edges(rmat(skewed));
  RmatConfig uniform = skewed;
  uniform.a = uniform.b = uniform.c = uniform.d = 0.25;
  const Graph gu = Graph::from_edges(rmat(uniform));

  const double gini_s = stats::gini(stats::to_doubles(gs.out_degrees()));
  const double gini_u = stats::gini(stats::to_doubles(gu.out_degrees()));
  EXPECT_GT(gini_s, 0.5);
  EXPECT_LT(gini_u, 0.3);
  EXPECT_GT(gini_s, gini_u + 0.3);
}

TEST(Rmat, ScrambleKeepsDegreeMultiset) {
  RmatConfig cfg;
  cfg.scale = 9;
  cfg.scramble_ids = false;
  auto plain = Graph::from_edges(rmat(cfg)).out_degrees();
  cfg.scramble_ids = true;
  auto scrambled = Graph::from_edges(rmat(cfg)).out_degrees();
  std::sort(plain.begin(), plain.end());
  std::sort(scrambled.begin(), scrambled.end());
  EXPECT_EQ(plain, scrambled);
}

TEST(Rmat, ScrambleBreaksIdLocality) {
  // Unscrambled R-MAT concentrates high degrees at low ids; after
  // scrambling the first-half/second-half degree mass should be ~equal.
  RmatConfig cfg;
  cfg.scale = 12;
  cfg.edge_factor = 8;
  cfg.scramble_ids = true;
  const Graph g = Graph::from_edges(rmat(cfg));
  const VertexId half = g.num_vertices() / 2;
  EdgeId lo = 0, hi = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    (v < half ? lo : hi) += g.out_degree(v);
  const double ratio = static_cast<double>(lo) / static_cast<double>(hi);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(Rmat, RejectsBadProbabilities) {
  RmatConfig cfg;
  cfg.a = 0.9;  // sum > 1
  EXPECT_THROW(rmat(cfg), CheckError);
}

TEST(BarabasiAlbert, SizeAndMinDegree) {
  BarabasiAlbertConfig cfg;
  cfg.num_vertices = 2000;
  cfg.attach = 4;
  const Graph g = Graph::from_edges(barabasi_albert(cfg));
  EXPECT_EQ(g.num_vertices(), 2000u);
  // Every non-seed vertex attaches `attach` undirected edges.
  for (VertexId v = cfg.attach + 1; v < g.num_vertices(); ++v)
    EXPECT_GE(g.out_degree(v), cfg.attach);
}

TEST(BarabasiAlbert, IsSymmetric) {
  BarabasiAlbertConfig cfg;
  cfg.num_vertices = 500;
  cfg.attach = 3;
  EXPECT_TRUE(Graph::from_edges(barabasi_albert(cfg)).is_symmetric());
}

TEST(BarabasiAlbert, HasPowerLawTail) {
  BarabasiAlbertConfig cfg;
  cfg.num_vertices = 5000;
  cfg.attach = 4;
  const Graph g = Graph::from_edges(barabasi_albert(cfg));
  const GraphStats s = analyze(g);
  // Hubs far above the minimum degree and negative log-log slope.
  EXPECT_GT(s.max_out_degree, 20 * cfg.attach);
  EXPECT_LT(s.power_law_slope, -0.8);
}

TEST(ErdosRenyi, ExactEdgeCount) {
  ErdosRenyiConfig cfg;
  cfg.num_vertices = 1000;
  cfg.num_edges = 5000;
  const EdgeList el = erdos_renyi(cfg);
  EXPECT_EQ(el.size(), 5000u);
  EXPECT_EQ(el.num_vertices(), 1000u);
  for (const Edge& e : el.edges()) EXPECT_NE(e.src, e.dst);
}

TEST(ErdosRenyi, FlatDegreeDistribution) {
  ErdosRenyiConfig cfg;
  cfg.num_vertices = 4000;
  cfg.num_edges = 40000;
  const Graph g = Graph::from_edges(erdos_renyi(cfg));
  EXPECT_LT(stats::gini(stats::to_doubles(g.out_degrees())), 0.25);
}

TEST(WattsStrogatz, DegreeIsTwoK) {
  WattsStrogatzConfig cfg;
  cfg.num_vertices = 1000;
  cfg.k = 5;
  cfg.beta = 0.0;  // pure ring lattice
  const Graph g = Graph::from_edges(watts_strogatz(cfg));
  // beta=0: every vertex has exactly k out-edges added from itself plus k
  // added by neighbors -> total degree 2k in the undirected edge list.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(g.out_degree(v), 2 * cfg.k);
}

TEST(WattsStrogatz, RewiringPreservesEdgeCount) {
  WattsStrogatzConfig cfg;
  cfg.num_vertices = 500;
  cfg.k = 4;
  cfg.beta = 0.5;
  const EdgeList el = watts_strogatz(cfg);
  EXPECT_EQ(el.size(), static_cast<std::size_t>(cfg.num_vertices) * cfg.k * 2);
}

TEST(ChungLu, HitsTargetAverageDegree) {
  ChungLuConfig cfg;
  cfg.num_vertices = 4000;
  cfg.avg_degree = 10.0;
  const Graph g = Graph::from_edges(chung_lu(cfg));
  EXPECT_NEAR(g.avg_degree(), 10.0, 0.01);
}

TEST(ChungLu, SkewIncreasesAsExponentDrops) {
  ChungLuConfig heavy;
  heavy.num_vertices = 4000;
  heavy.avg_degree = 12;
  heavy.exponent = 1.8;
  ChungLuConfig light = heavy;
  light.exponent = 3.5;
  const double gini_heavy = stats::gini(
      stats::to_doubles(Graph::from_edges(chung_lu(heavy)).out_degrees()));
  const double gini_light = stats::gini(
      stats::to_doubles(Graph::from_edges(chung_lu(light)).out_degrees()));
  EXPECT_GT(gini_heavy, gini_light);
}

}  // namespace
}  // namespace bpart::graph
