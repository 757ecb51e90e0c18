#include "graph/edge_list.hpp"

#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "util/check.hpp"

namespace bpart::graph {
namespace {

TEST(EdgeList, AddGrowsVertexCount) {
  EdgeList el;
  el.add(0, 5);
  EXPECT_EQ(el.num_vertices(), 6u);
  el.add(9, 1);
  EXPECT_EQ(el.num_vertices(), 10u);
  EXPECT_EQ(el.size(), 2u);
}

TEST(EdgeList, AddUndirectedAddsBothDirections) {
  EdgeList el;
  el.add_undirected(1, 2);
  ASSERT_EQ(el.size(), 2u);
  EXPECT_EQ(el[0], (Edge{1, 2}));
  EXPECT_EQ(el[1], (Edge{2, 1}));
}

TEST(EdgeList, AppendCoveringMaxVertexGrowsCount) {
  EdgeList el;
  const std::vector<Edge> batch{{0, 5}, {3, 2}};
  el.append(batch, 5);
  EXPECT_EQ(el.size(), 2u);
  EXPECT_EQ(el.num_vertices(), 6u);
}

TEST(EdgeList, AppendValidatesClaimedMaxVertex) {
  // Regression: append() used to trust the caller's max_vertex, so an
  // undercount left num_vertices() smaller than an endpoint and every CSR
  // built from the list indexed out of bounds. Debug builds assert the
  // contract; release builds clamp to the real bound.
  EdgeList el;
  const std::vector<Edge> batch{{0, 7}, {2, 1}};
#ifdef NDEBUG
  el.append(batch, 1);  // Claims max endpoint 1; batch reaches 7.
  EXPECT_EQ(el.num_vertices(), 8u);
#else
  EXPECT_THROW(el.append(batch, 1), CheckError);
#endif
  // A correct bound still works either way.
  EdgeList ok;
  ok.append(batch, 7);
  EXPECT_EQ(ok.num_vertices(), 8u);
  EXPECT_EQ(ok.out_degrees().size(), 8u);
}

TEST(EdgeList, AddAndAppendRejectReservedVertexId) {
  // kInvalidVertex + 1 wraps the vertex count to 0; both entry points must
  // refuse it and leave the list untouched.
  EdgeList el;
  EXPECT_THROW(el.add(kInvalidVertex, 0), CheckError);
  EXPECT_THROW(el.add(0, kInvalidVertex), CheckError);
  EXPECT_THROW(el.add_undirected(1, kInvalidVertex), CheckError);
  const std::vector<Edge> batch{{kInvalidVertex, 0}};
  EXPECT_THROW(el.append(batch, kInvalidVertex), CheckError);
  const std::vector<Edge> small{{1, 2}};
  EXPECT_THROW(el.append(small, kInvalidVertex), CheckError);
  EXPECT_EQ(el.size(), 0u);
  EXPECT_EQ(el.num_vertices(), 0u);
  el.add(kInvalidVertex - 1, 0);
  EXPECT_EQ(el.num_vertices(), kInvalidVertex);
}

TEST(EdgeList, SetNumVerticesAllowsIsolatedTail) {
  EdgeList el;
  el.add(0, 1);
  el.set_num_vertices(10);
  EXPECT_EQ(el.num_vertices(), 10u);
}

TEST(EdgeList, SetNumVerticesRejectsTruncation) {
  EdgeList el;
  el.add(0, 5);
  EXPECT_THROW(el.set_num_vertices(3), CheckError);
}

TEST(EdgeList, RemoveSelfLoops) {
  EdgeList el;
  el.add(0, 0);
  el.add(0, 1);
  el.add(1, 1);
  EXPECT_EQ(el.remove_self_loops(), 2u);
  EXPECT_EQ(el.size(), 1u);
  EXPECT_EQ(el[0], (Edge{0, 1}));
}

TEST(EdgeList, SortAndDedup) {
  EdgeList el;
  el.add(2, 3);
  el.add(0, 1);
  el.add(2, 3);
  el.add(0, 1);
  el.add(0, 2);
  EXPECT_EQ(el.sort_and_dedup(), 2u);
  ASSERT_EQ(el.size(), 3u);
  EXPECT_EQ(el[0], (Edge{0, 1}));
  EXPECT_EQ(el[1], (Edge{0, 2}));
  EXPECT_EQ(el[2], (Edge{2, 3}));
}

TEST(EdgeList, SymmetrizeMakesSymmetric) {
  EdgeList el;
  el.add(0, 1);
  el.add(2, 1);
  EXPECT_FALSE(Graph::from_edges(el).is_symmetric());
  el.symmetrize();
  EXPECT_TRUE(Graph::from_edges(el).is_symmetric());
  EXPECT_EQ(el.size(), 4u);
}

TEST(EdgeList, SymmetrizeIsIdempotent) {
  EdgeList el;
  el.add(0, 1);
  el.symmetrize();
  const std::size_t size_once = el.size();
  el.symmetrize();
  EXPECT_EQ(el.size(), size_once);
}

TEST(EdgeList, IsSymmetricOnEmpty) {
  EdgeList el;
  EXPECT_TRUE(Graph::from_edges(el).is_symmetric());
}

TEST(EdgeList, OutDegrees) {
  EdgeList el;
  el.add(0, 1);
  el.add(0, 2);
  el.add(2, 0);
  el.set_num_vertices(4);
  const auto deg = el.out_degrees();
  ASSERT_EQ(deg.size(), 4u);
  EXPECT_EQ(deg[0], 2u);
  EXPECT_EQ(deg[1], 0u);
  EXPECT_EQ(deg[2], 1u);
  EXPECT_EQ(deg[3], 0u);
}

}  // namespace
}  // namespace bpart::graph
