#include "partition/subgraph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/generators.hpp"
#include "partition/metrics.hpp"
#include "partition/registry.hpp"
#include "test_graphs.hpp"
#include "util/check.hpp"

namespace bpart::partition {
namespace {

using graph::EdgeList;
using graph::Graph;

Graph square() {
  EdgeList el;
  el.add_undirected(0, 1);
  el.add_undirected(1, 2);
  el.add_undirected(2, 3);
  el.add_undirected(3, 0);
  return Graph::from_edges(el);
}

Partition adjacent_split(const Graph& g) {
  Partition p(g.num_vertices(), 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  p.assign(3, 1);
  return p;
}

TEST(Subgraph, SquareSplitStructure) {
  const Graph g = square();
  const Partition p = adjacent_split(g);
  const auto subs = build_subgraphs(g, p);
  ASSERT_EQ(subs.size(), 2u);

  // Part 0 owns {0, 1}; its ghosts are {2, 3} (each touched by one cut
  // edge).
  const Subgraph& s0 = subs[0];
  EXPECT_EQ(s0.num_local, 2u);
  EXPECT_EQ(s0.num_ghosts, 2u);
  EXPECT_EQ(s0.global_id[0], 0u);
  EXPECT_EQ(s0.global_id[1], 1u);
  EXPECT_EQ(s0.cut_edges, 2u);  // 1->2 and 0->3
  for (PartId owner : s0.ghost_owner) EXPECT_EQ(owner, 1u);

  // Owned adjacency is complete: vertex 0 (local 0) has degree 2.
  EXPECT_EQ(s0.local.out_degree(0), 2u);
  // Ghosts carry no local out-edges.
  EXPECT_EQ(s0.local.out_degree(2), 0u);
  EXPECT_EQ(s0.local.out_degree(3), 0u);
}

TEST(Subgraph, VerifyAcceptsCorrectBuild) {
  const Graph g = square();
  const Partition p = adjacent_split(g);
  const auto subs = build_subgraphs(g, p);
  EXPECT_TRUE(verify_subgraphs(g, p, subs));
}

TEST(Subgraph, VerifyRejectsTampering) {
  const Graph g = square();
  const Partition p = adjacent_split(g);
  auto subs = build_subgraphs(g, p);
  subs[0].cut_edges += 1;
  EXPECT_FALSE(verify_subgraphs(g, p, subs));
}

TEST(Subgraph, VerifyRejectsScrambledTargets) {
  const Graph g = square();
  const Partition p = adjacent_split(g);
  const auto subs = build_subgraphs(g, p);
  const Graph& local = subs[0].local;
  // Rebuilds part 0's CSR with the given targets and the built offsets, so
  // every degree stays as built and only an adjacency-content check can
  // tell.
  auto rebuilt = [&](std::vector<graph::VertexId> out,
                     std::vector<graph::VertexId> in) {
    auto tampered = subs;
    tampered[0].local = Graph::from_csr(
        {local.out_offsets().begin(), local.out_offsets().end()},
        std::move(out), {local.in_offsets().begin(), local.in_offsets().end()},
        std::move(in));
    return tampered;
  };
  const std::vector<graph::VertexId> out(local.out_targets().begin(),
                                         local.out_targets().end());
  const std::vector<graph::VertexId> in(local.in_targets().begin(),
                                        local.in_targets().end());
  // Local vertex 0 (global 0) points at {local 1, ghost 3}.
  ASSERT_EQ(local.out_neighbor(0, 0), 1u);
  ASSERT_EQ(local.out_neighbor(0, 1), 3u);

  // One target replaced: global edge 0->1 becomes a self-loop.
  auto replaced = out;
  replaced[0] = 0;
  EXPECT_FALSE(verify_subgraphs(g, p, rebuilt(replaced, in)));
  // Right targets, wrong order: Graph::from_csr refuses the unsorted run,
  // so no subgraph can carry one.
  auto swapped = out;
  std::swap(swapped[0], swapped[1]);
  EXPECT_THROW(rebuilt(swapped, in), std::invalid_argument);
  // Out-CSR intact, in-CSR not its transpose.
  auto not_transpose = in;
  std::swap(not_transpose.front(), not_transpose.back());
  EXPECT_FALSE(verify_subgraphs(g, p, rebuilt(out, not_transpose)));
  // The unedited arrays still verify.
  EXPECT_TRUE(verify_subgraphs(g, p, rebuilt(out, in)));
}

TEST(Subgraph, EveryPaperAlgorithmProducesVerifiableSubgraphs) {
  const Graph g = testing::social_graph();
  for (const auto& algo : paper_algorithms()) {
    const Partition p = create(algo)->partition(g, 8);
    const auto subs = build_subgraphs(g, p);
    ASSERT_TRUE(verify_subgraphs(g, p, subs)) << algo;
    // Per-part cut edges sum to the global cut count.
    std::uint64_t cut = 0;
    for (const auto& sub : subs) cut += sub.cut_edges;
    EXPECT_EQ(cut, edge_cut_count(g, p)) << algo;
  }
}

TEST(Subgraph, GhostFractionTracksCutRatio) {
  // Hash's subgraphs are ghost-heavy; BPart's much less so — the memory
  // overhead side of the communication story.
  const Graph g = testing::social_graph();
  auto footprint = [&](const std::string& algo) {
    const Partition p = create(algo)->partition(g, 8);
    const auto subs = build_subgraphs(g, p);
    std::uint64_t ghosts = 0, locals = 0, cut = 0;
    for (const auto& sub : subs) {
      ghosts += sub.num_ghosts;
      locals += sub.num_local;
      cut += sub.cut_edges;
    }
    return std::pair{static_cast<double>(ghosts) /
                         static_cast<double>(locals),
                     cut};
  };
  const auto [hash_ghosts, hash_cut] = footprint("hash");
  const auto [bpart_ghosts, bpart_cut] = footprint("bpart");
  // Ghost tables saturate once most hubs are ghosts everywhere, so the
  // ratio compresses — but it must still favor BPart, and the cut-edge
  // (message schedule) gap stays wide.
  EXPECT_GT(hash_ghosts, 1.2 * bpart_ghosts);
  EXPECT_GT(hash_cut, 1.3 * bpart_cut);
}

TEST(Subgraph, RequiresFullAssignment) {
  const Graph g = square();
  Partition partial(4, 2);
  partial.assign(0, 0);
  EXPECT_THROW(build_subgraphs(g, partial), CheckError);
}

TEST(Subgraph, SinglePartHasNoGhosts) {
  const Graph g = square();
  Partition p(4, 1);
  for (graph::VertexId v = 0; v < 4; ++v) p.assign(v, 0);
  const auto subs = build_subgraphs(g, p);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].num_ghosts, 0u);
  EXPECT_EQ(subs[0].cut_edges, 0u);
  EXPECT_EQ(subs[0].local.num_edges(), g.num_edges());
  EXPECT_TRUE(verify_subgraphs(g, p, subs));
}

}  // namespace
}  // namespace bpart::partition
