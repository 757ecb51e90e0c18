// The loader contract: partition::build_subgraphs and DistGraph give the
// same answer at every worker count, and that answer is the plain
// map-and-sort construction below, field by field.
#include "dist/dist_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "../partition/test_graphs.hpp"
#include "partition/registry.hpp"

namespace bpart::dist {
namespace {

using graph::Graph;
using graph::VertexId;
using partition::Partition;
using partition::PartId;
using partition::Subgraph;

/// Reference builder: collect and sort each part's ghosts, renumber every
/// owned edge through a hash map, and let Graph::from_edges sort the runs.
std::vector<Subgraph> reference_subgraphs(const Graph& g, const Partition& p) {
  const PartId k = p.num_parts();
  const VertexId n = g.num_vertices();
  std::vector<std::vector<VertexId>> owned(k);
  for (VertexId v = 0; v < n; ++v) owned[p[v]].push_back(v);
  std::vector<std::vector<VertexId>> ghosts(k);
  for (VertexId v = 0; v < n; ++v)
    for (VertexId u : g.out_neighbors(v))
      if (p[u] != p[v]) ghosts[p[v]].push_back(u);
  for (auto& list : ghosts) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  std::vector<Subgraph> subs(k);
  for (PartId part = 0; part < k; ++part) {
    Subgraph& sub = subs[part];
    sub.num_local = static_cast<VertexId>(owned[part].size());
    sub.num_ghosts = static_cast<VertexId>(ghosts[part].size());
    sub.global_id = owned[part];
    sub.global_id.insert(sub.global_id.end(), ghosts[part].begin(),
                         ghosts[part].end());
    for (VertexId ghost : ghosts[part]) sub.ghost_owner.push_back(p[ghost]);
    std::unordered_map<VertexId, VertexId> local_of;
    for (VertexId lid = 0; lid < sub.global_id.size(); ++lid)
      local_of.emplace(sub.global_id[lid], lid);
    graph::EdgeList edges(static_cast<VertexId>(sub.global_id.size()));
    for (VertexId lid = 0; lid < sub.num_local; ++lid)
      for (VertexId u : g.out_neighbors(sub.global_id[lid])) {
        edges.add(lid, local_of.at(u));
        if (p[u] != part) ++sub.cut_edges;
      }
    edges.set_num_vertices(static_cast<VertexId>(sub.global_id.size()));
    sub.local = Graph::from_edges(edges);
  }
  return subs;
}

template <typename A, typename B>
bool same(const A& a, const B& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

void expect_identical(const std::vector<Subgraph>& got,
                      const std::vector<Subgraph>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t m = 0; m < got.size(); ++m) {
    const Subgraph& a = got[m];
    const Subgraph& b = want[m];
    EXPECT_EQ(a.num_local, b.num_local) << what << " part " << m;
    EXPECT_EQ(a.num_ghosts, b.num_ghosts) << what << " part " << m;
    EXPECT_EQ(a.cut_edges, b.cut_edges) << what << " part " << m;
    EXPECT_EQ(a.global_id, b.global_id) << what << " part " << m;
    EXPECT_EQ(a.ghost_owner, b.ghost_owner) << what << " part " << m;
    EXPECT_TRUE(same(a.local.out_offsets(), b.local.out_offsets()))
        << what << " part " << m;
    EXPECT_TRUE(same(a.local.out_targets(), b.local.out_targets()))
        << what << " part " << m;
    EXPECT_TRUE(same(a.local.in_offsets(), b.local.in_offsets()))
        << what << " part " << m;
    EXPECT_TRUE(same(a.local.in_targets(), b.local.in_targets()))
        << what << " part " << m;
  }
}

/// Holders of every owned vertex, from the reference ghost tables:
/// holders[owner][owner-local id], ascending by holder.
std::vector<std::vector<std::vector<MachineId>>> reference_holders(
    const std::vector<Subgraph>& subs) {
  std::vector<std::vector<std::vector<MachineId>>> holders(subs.size());
  std::unordered_map<VertexId, VertexId> local_of;
  for (std::size_t m = 0; m < subs.size(); ++m) {
    holders[m].resize(subs[m].num_local);
    for (VertexId lid = 0; lid < subs[m].num_local; ++lid)
      local_of[subs[m].global_id[lid]] = lid;
  }
  for (MachineId holder = 0; holder < subs.size(); ++holder) {
    const Subgraph& sub = subs[holder];
    for (VertexId i = 0; i < sub.num_ghosts; ++i)
      holders[sub.ghost_owner[i]][local_of.at(sub.global_id[sub.num_local + i])]
          .push_back(holder);
  }
  return holders;
}

/// Checks build_subgraphs at several worker counts and DistGraph at several
/// thread counts against the references.
void check_loader(const Graph& g, const Partition& p, const std::string& what) {
  const std::vector<Subgraph> want = reference_subgraphs(g, p);
  ASSERT_TRUE(partition::verify_subgraphs(g, p, want)) << what;
  for (const unsigned workers : {1u, 2u, 3u, 8u})
    expect_identical(partition::build_subgraphs(g, p, workers), want,
                     what + " workers=" + std::to_string(workers));

  const auto holders = reference_holders(want);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const DistGraph dg(g, p, threads);
    ASSERT_EQ(dg.num_machines(), p.num_parts()) << what;
    for (MachineId m = 0; m < dg.num_machines(); ++m) {
      ASSERT_EQ(dg.subgraph(m).num_local, holders[m].size()) << what;
      for (VertexId lid = 0; lid < dg.subgraph(m).num_local; ++lid)
        ASSERT_TRUE(same(dg.mirror_holders(m, lid), holders[m][lid]))
            << what << " threads=" << threads << " machine " << m
            << " local " << lid;
    }
  }
}

/// Directed edge cases: parallel edges (within a part and across it),
/// self-loops, reverse-only edges, isolated vertices (10, 11) and an empty
/// part (3 of 4).
Graph edge_case_graph() {
  graph::EdgeList el(12);
  el.add(0, 1);
  el.add(0, 1);
  el.add(2, 2);
  el.add(3, 0);
  el.add(1, 4);
  el.add(1, 4);
  el.add(4, 8);
  el.add(8, 4);
  el.add(5, 9);
  el.add(9, 0);
  el.add(6, 6);
  el.add(6, 2);
  el.add(7, 3);
  el.add(7, 5);
  return Graph::from_edges(el);
}

Partition edge_case_partition(VertexId n, PartId k) {
  Partition p(n, k);
  for (VertexId v = 0; v < n; ++v) p.assign(v, (v / 2) % 3);  // part 3 empty
  return p;
}

TEST(DistGraphLoader, DirectedEdgeCasesMatchReference) {
  const Graph g = edge_case_graph();
  check_loader(g, edge_case_partition(g.num_vertices(), 4), "edge cases");
}

TEST(DistGraphLoader, SinglePartMatchesReference) {
  const Graph g = edge_case_graph();
  check_loader(g, Partition(std::vector<PartId>(g.num_vertices(), 0), 1),
               "edge cases k=1");
  const Graph social = partition::testing::social_graph();
  check_loader(social,
               Partition(std::vector<PartId>(social.num_vertices(), 0), 1),
               "social k=1");
}

TEST(DistGraphLoader, PaperPartitionersMatchReference) {
  const Graph g = partition::testing::social_graph();
  for (const auto& algo : partition::paper_algorithms())
    check_loader(g, partition::create(algo)->partition(g, 8), algo);
}

}  // namespace
}  // namespace bpart::dist
