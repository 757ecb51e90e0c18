#include "walk/dist_walk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "partition/registry.hpp"
#include "util/rng.hpp"

namespace bpart::walk {
namespace {

// Directed cycle: every vertex has out-degree 1, so walks never dead-end
// and step totals are exact.
graph::Graph cycle_graph(graph::VertexId n) {
  graph::EdgeList edges(n);
  edges.reserve(n);
  for (graph::VertexId v = 0; v < n; ++v) edges.add(v, (v + 1) % n);
  return graph::Graph::from_edges(edges);
}

TEST(DistWalk, StepConservationOnCycle) {
  constexpr graph::VertexId kN = 1000;
  const graph::Graph g = cycle_graph(kN);
  const partition::Partition parts =
      partition::create("chunk-v")->partition(g, 4);

  ThreadedWalkConfig cfg;
  cfg.length = 12;
  cfg.walks_per_vertex = 3;
  const DistWalkReport r = run_simple_walks_dist(g, parts, cfg);

  // No dead ends: every walker takes exactly `length` steps.
  EXPECT_EQ(r.total_steps,
            static_cast<std::uint64_t>(kN) * cfg.walks_per_vertex * cfg.length);
  // Contiguous 250-vertex blocks, 12-step walks: every walker starting near
  // a block boundary ships at least once.
  EXPECT_GT(r.message_walks, 0u);
  EXPECT_GT(r.supersteps, 1u);

  // The measured report counts exactly the shipped walkers as messages.
  std::uint64_t msgs = 0;
  for (const auto& it : r.run.iterations)
    for (const auto& m : it.machines) msgs += m.messages_sent;
  EXPECT_EQ(msgs, r.message_walks);
  EXPECT_EQ(r.run.num_machines, 4u);
  EXPECT_EQ(r.run.iterations.size(), r.supersteps);
}

TEST(DistWalk, SinglePartitionNeverShips) {
  const graph::Graph g = cycle_graph(128);
  const partition::Partition parts =
      partition::create("chunk-v")->partition(g, 1);
  ThreadedWalkConfig cfg;
  cfg.length = 5;
  const DistWalkReport r = run_simple_walks_dist(g, parts, cfg);
  EXPECT_EQ(r.total_steps, 128u * 5u);
  EXPECT_EQ(r.message_walks, 0u);
  EXPECT_EQ(r.supersteps, 1u);  // all walks complete in the first superstep
}

TEST(DistWalk, LocalPartitionShipsFewerWalkersThanHash) {
  graph::WattsStrogatzConfig wcfg;
  wcfg.num_vertices = 1024;
  wcfg.k = 4;
  wcfg.beta = 0.2;
  wcfg.seed = 3;
  const graph::Graph g = graph::Graph::from_edges(graph::watts_strogatz(wcfg));
  ThreadedWalkConfig cfg;
  cfg.length = 8;
  const DistWalkReport chunk = run_simple_walks_dist(
      g, partition::create("chunk-v")->partition(g, 4), cfg);
  const DistWalkReport hash = run_simple_walks_dist(
      g, partition::create("hash")->partition(g, 4), cfg);
  EXPECT_EQ(chunk.total_steps, hash.total_steps);
  EXPECT_LT(chunk.message_walks, hash.message_walks);
}

TEST(DistWalk, DeadEndsTerminateEarly) {
  graph::EdgeList el;
  el.add(0, 1);
  el.add(1, 2);  // 2 is a sink
  const graph::Graph g = graph::Graph::from_edges(el);
  partition::Partition parts(3, 2);
  parts.assign(0, 0);
  parts.assign(1, 1);
  parts.assign(2, 0);
  ThreadedWalkConfig cfg;
  cfg.length = 10;
  const DistWalkReport r = run_simple_walks_dist(g, parts, cfg);
  // Walker@0: 2 steps; walker@1: 1 step; walker@2: 0.
  EXPECT_EQ(r.total_steps, 3u);
  EXPECT_EQ(r.message_walks, 3u);  // 0->1, then 1->2 for walkers @0 and @1
}

TEST(DistWalk, ExecPathMatchesSequentialDrain) {
  // A branching graph so every step actually draws. Counter streams plus
  // chunk-order channel flushes make every exec thread count reproduce the
  // default one-worker (sequential) drain exactly.
  graph::WattsStrogatzConfig wcfg;
  wcfg.num_vertices = 512;
  wcfg.k = 4;
  wcfg.beta = 0.2;
  wcfg.seed = 5;
  const graph::Graph g = graph::Graph::from_edges(graph::watts_strogatz(wcfg));
  const partition::Partition parts =
      partition::create("chunk-v")->partition(g, 4);
  ThreadedWalkConfig cfg;
  cfg.length = 10;
  cfg.walks_per_vertex = 2;
  const DistWalkReport base = run_simple_walks_dist(g, parts, cfg);
  for (const unsigned threads : {1u, 2u, 4u}) {
    cfg.exec.threads = threads;
    const DistWalkReport got = run_simple_walks_dist(g, parts, cfg);
    EXPECT_EQ(got.total_steps, base.total_steps) << threads << " threads";
    EXPECT_EQ(got.message_walks, base.message_walks) << threads << " threads";
    EXPECT_EQ(got.supersteps, base.supersteps) << threads << " threads";
  }
}

// Per-(superstep, machine) step and shipment tallies of a reference walk
// on the global CSR.
struct ReferenceRows {
  std::vector<std::vector<std::uint64_t>> steps;    // [superstep][machine]
  std::vector<std::vector<std::uint64_t>> shipped;  // [superstep][machine]
  std::size_t supersteps = 1;
  std::uint64_t mid_walk_dead_ends = 0;  // stopped at a sink after >= 1 step
  std::uint64_t last_step_ships = 0;     // crossed on their final step
};

// Walks every walker on the global CSR with the dist engine's keyed draws
// (draw k = k-th out-neighbor in global-id order), in the engine's walker
// numbering (round * |V| + start vertex). A walker that crosses in
// superstep s continues on its new owner in superstep s + 1.
ReferenceRows reference_rows(const graph::Graph& g,
                             const partition::Partition& parts,
                             const ThreadedWalkConfig& cfg) {
  const graph::VertexId n = g.num_vertices();
  // A walker ships at most `length` times: at most length + 1 supersteps.
  const std::vector<std::vector<std::uint64_t>> zeros(
      cfg.length + 1, std::vector<std::uint64_t>(parts.num_parts(), 0));
  ReferenceRows ref{zeros, zeros};
  for (unsigned r = 0; r < cfg.walks_per_vertex; ++r) {
    for (graph::VertexId v = 0; v < n; ++v) {
      const std::uint64_t id = static_cast<std::uint64_t>(r) * n + v;
      graph::VertexId at = v;
      partition::PartId machine = parts[v];
      std::size_t superstep = 0;
      unsigned taken = 0;
      while (taken < cfg.length && g.out_degree(at) > 0) {
        CounterRng rng(cfg.seed, id, taken);
        at = g.out_neighbor(at, rng.bounded(g.out_degree(at)));
        ++taken;
        ++ref.steps[superstep][machine];
        if (parts[at] != machine) {
          ++ref.shipped[superstep][machine];
          if (taken == cfg.length) ++ref.last_step_ships;
          ++superstep;
          machine = parts[at];
        }
      }
      if (taken > 0 && taken < cfg.length) ++ref.mid_walk_dead_ends;
      ref.supersteps = std::max(ref.supersteps, superstep + 1);
    }
  }
  ref.steps.resize(ref.supersteps);
  ref.shipped.resize(ref.supersteps);
  return ref;
}

TEST(DistWalk, SuperstepRowsMatchGlobalReference) {
  // Every superstep row, not just run totals: each machine's steps and
  // shipments per superstep must equal a walk of the global CSR with the
  // same keyed draws. Sinks make walkers dead-end while their group still
  // has others in flight; chunk_edges 16 gives one-walker chunks (the group
  // never fills), 4096 gives 256-walker chunks. The third partition leaves
  // a part empty: its machine owns no vertex and idles every superstep.
  graph::WattsStrogatzConfig wcfg;
  wcfg.num_vertices = 1024;
  wcfg.k = 4;
  wcfg.beta = 0.2;
  wcfg.seed = 11;
  const graph::EdgeList ws = graph::watts_strogatz(wcfg);
  graph::EdgeList edges(wcfg.num_vertices);
  for (const graph::Edge& e : ws.edges())
    if (e.src % 61 != 0) edges.add(e.src, e.dst);  // every 61st is a sink
  const graph::Graph g = graph::Graph::from_edges(edges);

  ThreadedWalkConfig cfg;
  cfg.length = 12;
  cfg.walks_per_vertex = 2;
  cfg.seed = 29;
  const partition::Partition chunk =
      partition::create("chunk-v")->partition(g, 4);
  std::vector<partition::PartId> gap(chunk.assignment().begin(),
                                     chunk.assignment().end());
  for (partition::PartId& p : gap) p += p >= 2 ? 1 : 0;  // part 2 is empty
  const std::vector<std::pair<std::string, partition::Partition>> inputs = {
      {"chunk-v", chunk},
      {"hash", partition::create("hash")->partition(g, 4)},
      {"chunk-v with an empty part", partition::Partition(std::move(gap), 5)},
  };
  for (const auto& [name, parts] : inputs) {
    const ReferenceRows ref = reference_rows(g, parts, cfg);
    ASSERT_GT(ref.mid_walk_dead_ends, 0u) << name;
    ASSERT_GT(ref.last_step_ships, 0u) << name;
    for (const std::uint32_t chunk_edges : {16u, 4096u}) {
      for (const unsigned threads : {1u, 2u, 4u}) {
        cfg.exec.chunk_edges = chunk_edges;
        cfg.exec.threads = threads;
        const DistWalkReport got = run_simple_walks_dist(g, parts, cfg);
        const std::string at = name + " chunk_edges " +
                               std::to_string(chunk_edges) + " threads " +
                               std::to_string(threads);
        ASSERT_EQ(got.supersteps, ref.supersteps) << at;
        ASSERT_EQ(got.run.iterations.size(), ref.supersteps) << at;
        for (std::size_t s = 0; s < ref.supersteps; ++s) {
          const auto& machines = got.run.iterations[s].machines;
          ASSERT_EQ(machines.size(), parts.num_parts()) << at;
          for (std::size_t m = 0; m < machines.size(); ++m) {
            EXPECT_EQ(machines[m].work_items, ref.steps[s][m])
                << at << " superstep " << s << " machine " << m;
            EXPECT_EQ(machines[m].messages_sent, ref.shipped[s][m])
                << at << " superstep " << s << " machine " << m;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace bpart::walk
