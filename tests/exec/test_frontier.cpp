#include <gtest/gtest.h>

#include "exec/frontier.hpp"

namespace bpart::exec {
namespace {

TEST(Frontier, AddTracksSizeMembershipAndEdgeMass) {
  Frontier f(10);
  EXPECT_TRUE(f.empty());
  f.add(3, 5);
  f.add(7, 2);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.edge_mass(), 7u);
  EXPECT_TRUE(f.contains(3));
  EXPECT_TRUE(f.contains(7));
  EXPECT_FALSE(f.contains(4));
}

TEST(Frontier, DuplicateAddIsNoOp) {
  Frontier f(4);
  f.add(2, 3);
  f.add(2, 3);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.edge_mass(), 3u);
  EXPECT_EQ(f.active().size(), 1u);
}

TEST(Frontier, ClearEmptiesBothRepresentations) {
  Frontier f(50);
  for (graph::VertexId v = 0; v < 50; v += 2) f.add(v, 1);
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.edge_mass(), 0u);
  for (graph::VertexId v = 0; v < 50; ++v) EXPECT_FALSE(f.contains(v));

  f.add(9);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_TRUE(f.contains(9));
}

TEST(Frontier, SwapExchangesEverything) {
  Frontier a(10), b(10);
  a.add(1, 4);
  b.add(2, 6);
  b.add(3, 1);
  a.swap(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.edge_mass(), 7u);
  EXPECT_TRUE(a.contains(2));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.contains(1));
}

TEST(ChoosePull, MatchesBeamerPredicate) {
  // alpha = 14: pull once frontier edge mass exceeds |E|/14 = 100.
  EXPECT_FALSE(choose_pull(99, 1, 1400, 100000));
  EXPECT_FALSE(choose_pull(100, 1, 1400, 100000));
  EXPECT_TRUE(choose_pull(101, 1, 1400, 100000));
  // beta = 24: pull once the frontier exceeds |V|/24 = 100 vertices.
  EXPECT_FALSE(choose_pull(0, 99, 100000, 2400));
  EXPECT_FALSE(choose_pull(0, 100, 100000, 2400));
  EXPECT_TRUE(choose_pull(0, 101, 100000, 2400));
}

}  // namespace
}  // namespace bpart::exec
