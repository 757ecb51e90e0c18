#include "vcut/mirror_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "../partition/test_graphs.hpp"
#include "dist/mirror.hpp"
#include "engine/components.hpp"
#include "engine/pagerank.hpp"
#include "vcut/placers.hpp"
#include "vcut/registry.hpp"
#include "vcut/two_phase.hpp"

namespace bpart::vcut {
namespace {

using graph::EdgeList;
using graph::Graph;
using partition::testing::social_graph;

Graph square() {
  EdgeList el;
  el.add_undirected(0, 1);
  el.add_undirected(1, 2);
  el.add_undirected(2, 3);
  el.add_undirected(3, 0);
  return Graph::from_edges(el);
}

const Graph& shared_social() {
  static const Graph g = social_graph();
  return g;
}

// Engine results on the trivial single-part partition: the ground truth
// the mirror path must reproduce.
partition::Partition single_part(const Graph& g) {
  partition::Partition parts(g.num_vertices(), 1);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) parts.assign(v, 0);
  return parts;
}

EdgePartition split_square(const Graph& g) {
  // Edges {0-1, 1-2} on part 0, {2-3, 3-0} on part 1.
  EdgePartition ep(g.num_edges(), 2);
  const auto pairs = canonical_pairs(g);
  for (const EdgePair& pair : pairs) {
    const bool part0 = (pair.a == 0 && pair.b == 1) ||
                       (pair.a == 1 && pair.b == 2);
    ep.assign_pair(pair, part0 ? 0 : 1);
  }
  return ep;
}

TEST(MirrorGraphTest, SplitSquareShards) {
  const Graph g = square();
  const auto ep = split_square(g);
  const MirrorGraph mg(g, ep, 17);
  ASSERT_EQ(mg.num_machines(), 2u);
  EXPECT_EQ(mg.num_global(), 4u);
  // Part 0 touches {0,1,2}, part 1 touches {0,2,3}: 6 replicas.
  EXPECT_EQ(mg.num_replicas(), 6u);
  EXPECT_DOUBLE_EQ(mg.replication_factor(), 1.5);
  EXPECT_DOUBLE_EQ(mg.replication_factor(),
                   replication_report(g, ep).replication_factor);
  EXPECT_EQ(mg.shard(0).num_replicas(), 3u);
  EXPECT_EQ(mg.shard(1).num_replicas(), 3u);
  // Each shard holds both directions of its two undirected edges.
  EXPECT_EQ(mg.shard(0).local.num_edges(), 4u);
  EXPECT_EQ(mg.shard(1).local.num_edges(), 4u);
}

TEST(MirrorGraphTest, ExactlyOneMasterPerVertex) {
  const Graph& g = shared_social();
  const auto ep = Hdrf().partition(g, 8);
  const MirrorGraph mg(g, ep, 17);
  std::vector<std::uint32_t> masters(g.num_vertices(), 0);
  std::vector<std::uint32_t> replicas(g.num_vertices(), 0);
  for (MachineId m = 0; m < mg.num_machines(); ++m) {
    const auto& sh = mg.shard(m);
    for (graph::VertexId r = 0; r < sh.num_replicas(); ++r) {
      ++replicas[sh.global_id[r]];
      if (sh.is_master[r]) {
        ++masters[sh.global_id[r]];
        EXPECT_EQ(sh.master_machine[r], m);
      }
    }
  }
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(masters[v], 1u);
    EXPECT_GE(replicas[v], 1u);
  }
}

TEST(MirrorGraphTest, MirrorHoldersMatchReplicaPlacement) {
  const Graph g = square();
  const auto ep = split_square(g);
  const MirrorGraph mg(g, ep, 17);
  // For every master, the holder list must name exactly the other machines
  // with a replica of that vertex.
  for (MachineId m = 0; m < mg.num_machines(); ++m) {
    const auto& sh = mg.shard(m);
    for (graph::VertexId r = 0; r < sh.num_replicas(); ++r) {
      if (!sh.is_master[r]) continue;
      const graph::VertexId v = sh.global_id[r];
      std::uint32_t holders = 0;
      for (std::uint32_t h = sh.mirror_offsets[r]; h < sh.mirror_offsets[r + 1];
           ++h) {
        const MachineId other = sh.mirror_holders[h];
        EXPECT_NE(other, m);
        EXPECT_NE(mg.shard(other).replica_of(v), kNoReplica);
        ++holders;
      }
      std::uint32_t expected = 0;
      for (MachineId o = 0; o < mg.num_machines(); ++o)
        if (o != m && mg.shard(o).replica_of(v) != kNoReplica) ++expected;
      EXPECT_EQ(holders, expected);
    }
  }
}

TEST(MirrorGraphTest, IsolatedVertexGetsAMasterReplica) {
  EdgeList el;
  el.add_undirected(0, 1);
  el.set_num_vertices(3);  // vertex 2 isolated
  const Graph g = Graph::from_edges(el);
  EdgePartition ep(g.num_edges(), 2);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) ep.assign(e, 0);
  const MirrorGraph mg(g, ep, 17);
  std::uint32_t found = 0;
  for (MachineId m = 0; m < mg.num_machines(); ++m) {
    const auto& sh = mg.shard(m);
    const graph::VertexId r = sh.replica_of(2);
    if (r == kNoReplica) continue;
    ++found;
    EXPECT_TRUE(sh.is_master[r]);
    EXPECT_EQ(sh.global_out_degree[r], 0u);
  }
  EXPECT_EQ(found, 1u);
}

TEST(MirrorPageRank, MatchesEngineOnEveryPlacer) {
  const Graph& g = shared_social();
  const auto reference = engine::pagerank(g, single_part(g));
  for (const auto& name : names()) {
    const auto ep = create(name)->partition(g, 8);
    const MirrorGraph mg(g, ep, 17);
    const auto mirror = dist::mirror_pagerank(mg);
    ASSERT_EQ(mirror.rank.size(), reference.rank.size());
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_NEAR(mirror.rank[v], reference.rank[v], 1e-10) << name << " " << v;
  }
}

TEST(MirrorPageRank, BitIdenticalAcrossRuntimeThreads) {
  const Graph& g = shared_social();
  const auto ep = Hdrf().partition(g, 8);
  const MirrorGraph mg(g, ep, 17);
  dist::DistOptions one;
  one.threads = 1;
  dist::DistOptions eight;
  eight.threads = 8;
  const auto a = dist::mirror_pagerank(mg, {}, one);
  const auto b = dist::mirror_pagerank(mg, {}, eight);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(a.rank[v], b.rank[v]);
}

TEST(MirrorPageRank, ExecPathMatchesSequential) {
  const Graph& g = shared_social();
  const auto ep = Hdrf().partition(g, 8);
  const MirrorGraph mg(g, ep, 17);
  dist::DistOptions one_worker;
  one_worker.exec.threads = 1;
  dist::DistOptions four_workers;
  four_workers.exec.threads = 4;
  const auto seq = dist::mirror_pagerank(mg, {}, one_worker);
  const auto par = dist::mirror_pagerank(mg, {}, four_workers);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(seq.rank[v], par.rank[v]);
}

TEST(MirrorComponents, MatchesEngineLabelsExactly) {
  const Graph& g = shared_social();
  const auto reference = engine::connected_components(g, single_part(g));
  const auto ep = TwoPhaseStreaming().partition(g, 8);
  const MirrorGraph mg(g, ep, 17);
  const auto mirror = dist::mirror_components(mg);
  EXPECT_EQ(mirror.num_components, reference.num_components);
  ASSERT_EQ(mirror.label.size(), reference.label.size());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(mirror.label[v], reference.label[v]);
}

TEST(MirrorComponents, DisconnectedGraph) {
  EdgeList el;
  el.add_undirected(0, 1);
  el.add_undirected(2, 3);
  el.set_num_vertices(5);  // vertex 4 isolated
  const Graph g = Graph::from_edges(el);
  EdgePartition ep(g.num_edges(), 2);
  const auto pairs = canonical_pairs(g);
  ep.assign_pair(pairs[0], 0);
  ep.assign_pair(pairs[1], 1);
  const MirrorGraph mg(g, ep, 17);
  const auto result = dist::mirror_components(mg);
  EXPECT_EQ(result.num_components, 3u);
  EXPECT_EQ(result.label[0], 0u);
  EXPECT_EQ(result.label[1], 0u);
  EXPECT_EQ(result.label[2], 2u);
  EXPECT_EQ(result.label[3], 2u);
  EXPECT_EQ(result.label[4], 4u);
}

}  // namespace
}  // namespace bpart::vcut
