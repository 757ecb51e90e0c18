// Determinism + parity suite for the parallel buffered streaming pass
// (DESIGN.md §9). The contract under test:
//   * the buffered result is a pure function of (graph, subset, k, config) —
//     identical at 1, 2 and 8 worker threads;
//   * quality parity with the sequential pass for every partitioner that
//     takes a batch size (Fennel, BPart): balance within each
//     partitioner's documented thresholds, edge cut within 5%;
//   * prioritized restreaming only improves the cut and never breaks
//     assignment or balance invariants.
// This suite runs under TSan in CI (the 8-thread cases exercise the
// snapshot/score/merge/commit protocol with real concurrency).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "graph/csr.hpp"
#include "obs/metrics.hpp"
#include "partition/bpart.hpp"
#include "partition/fennel.hpp"
#include "partition/metrics.hpp"
#include "partition/registry.hpp"
#include "test_graphs.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace bpart::partition {
namespace {

using graph::Graph;
using testing::social_graph;

std::vector<graph::VertexId> all_vertices(const Graph& g) {
  std::vector<graph::VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), graph::VertexId{0});
  return order;
}

StreamConfig buffered_cfg(std::uint32_t batch, unsigned threads,
                          unsigned refine = StreamConfig::kRefineAuto) {
  StreamConfig cfg;
  cfg.batch_size = batch;
  cfg.threads = threads;
  cfg.refine_passes = refine;
  return cfg;
}

TEST(ParallelStream, IdenticalAcrossThreadCounts) {
  const Graph g = social_graph();
  const auto all = all_vertices(g);
  const Partition p1 =
      greedy_stream_partition(g, all, 8, buffered_cfg(512, 1));
  const Partition p2 =
      greedy_stream_partition(g, all, 8, buffered_cfg(512, 2));
  const Partition p8 =
      greedy_stream_partition(g, all, 8, buffered_cfg(512, 8));
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(p1[v], p2[v]) << "vertex " << v;
    ASSERT_EQ(p1[v], p8[v]) << "vertex " << v;
  }
}

TEST(ParallelStream, RefinedResultAlsoIdenticalAcrossThreadCounts) {
  const Graph g = social_graph();
  const auto all = all_vertices(g);
  const Partition p1 =
      greedy_stream_partition(g, all, 8, buffered_cfg(1024, 1, 2));
  const Partition p8 =
      greedy_stream_partition(g, all, 8, buffered_cfg(1024, 8, 2));
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(p1[v], p8[v]) << "vertex " << v;
}

TEST(ParallelStream, OneSidedScanMatchesTwoSidedCopy) {
  // The buffered pass and its restream read N(v) through
  // Graph::for_each_neighbor: one run with times = 2 on the one-sided
  // graph, out then in on its two-sided copy. Same partition either way,
  // at 1 and 4 workers.
  const Graph one = social_graph();
  const Graph two = testing::two_sided_copy(one);
  const auto all = all_vertices(one);
  const Partition want =
      greedy_stream_partition(one, all, 8, buffered_cfg(512, 1));
  for (const unsigned threads : {1u, 4u}) {
    for (const Graph* g : {&one, &two}) {
      const Partition got =
          greedy_stream_partition(*g, all, 8, buffered_cfg(512, threads));
      for (graph::VertexId v = 0; v < one.num_vertices(); ++v)
        ASSERT_EQ(got[v], want[v]) << threads << " threads, vertex " << v;
    }
  }
}

TEST(ParallelStream, SingleBatchFallsBackToSequential) {
  // A batch at least as large as the subset keeps exact scoring: the
  // buffered pass must not degrade small pieces (BPart's late layers).
  const Graph g = social_graph();
  const auto all = all_vertices(g);
  const Partition seq = greedy_stream_partition(g, all, 8, StreamConfig{});
  const Partition one_batch = greedy_stream_partition(
      g, all, 8, buffered_cfg(g.num_vertices(), 8));
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(seq[v], one_batch[v]) << "vertex " << v;
}

TEST(ParallelStream, BufferedQualityParityWithSequential) {
  const Graph g = social_graph();
  const auto all = all_vertices(g);
  const Partition seq = greedy_stream_partition(g, all, 8, StreamConfig{});
  const Partition buf =
      greedy_stream_partition(g, all, 8, buffered_cfg(1024, 8));
  EXPECT_TRUE(buf.fully_assigned());

  const double seq_cut = edge_cut_ratio(g, seq);
  const double buf_cut = edge_cut_ratio(g, buf);
  EXPECT_LE(buf_cut, seq_cut * 1.05);

  // Fennel-style c=1 balance: same box the sequential pass is held to.
  EXPECT_LT(stats::bias(stats::to_doubles(buf.vertex_counts())), 0.25);
}

TEST(ParallelStream, RefinementRecoversBufferedCut) {
  // refine=0 explicitly disables the auto restream: the raw buffered cut is
  // what one restream pass has to claw back (DESIGN.md §9 measurements).
  const Graph g = social_graph();
  const auto all = all_vertices(g);
  const Partition raw =
      greedy_stream_partition(g, all, 8, buffered_cfg(1024, 4, 0));
  const Partition refined =
      greedy_stream_partition(g, all, 8, buffered_cfg(1024, 4, 2));
  EXPECT_TRUE(refined.fully_assigned());
  EXPECT_LE(edge_cut_ratio(g, refined), edge_cut_ratio(g, raw) + 1e-9);
  EXPECT_LT(stats::bias(stats::to_doubles(refined.vertex_counts())), 0.25);
}

TEST(ParallelStream, RefinementImprovesSequentialCutToo) {
  const Graph g = social_graph();
  const auto all = all_vertices(g);
  StreamConfig cfg;  // sequential
  const Partition plain = greedy_stream_partition(g, all, 8, cfg);
  cfg.refine_passes = 1;
  const Partition refined = greedy_stream_partition(g, all, 8, cfg);
  EXPECT_TRUE(refined.fully_assigned());
  EXPECT_LE(edge_cut_ratio(g, refined), edge_cut_ratio(g, plain) + 1e-9);
}

TEST(ParallelStream, EnvKnobRoutesEveryStreamingPartitioner) {
  // An explicit batch size must reach the streaming pass of every
  // partitioner that takes one — Fennel through StreamConfig::batch_size,
  // BPart through BPartConfig::stream_batch — and quality must stay at
  // parity: vertex/edge balance within each partitioner's documented box,
  // edge cut within 5% of the sequential run.
  const Graph g = social_graph();
  StreamConfig fennel_cfg;
  fennel_cfg.batch_size = 1024;
  BPartConfig bpart_cfg;
  bpart_cfg.stream_batch = 1024;
  struct Expectation {
    const char* algo;
    std::unique_ptr<Partitioner> buffered;
    double vertex_bias_box;
    double edge_bias_box;
  };
  // Boxes mirror each partitioner's own test suite: fennel balances
  // vertices only (test_fennel), bpart holds both biases under ~0.15
  // (test_bpart, Fig. 10).
  Expectation expectations[] = {
      {"fennel", std::make_unique<Fennel>(fennel_cfg), 0.25, 10.0},
      {"bpart", std::make_unique<BPart>(bpart_cfg), 0.15, 0.15},
  };
  for (const Expectation& e : expectations) {
    SCOPED_TRACE(e.algo);
    const Partition seq = create(e.algo)->partition(g, 8);

    obs::Counter& batches = obs::counter("partition.stream_batches");
    const std::uint64_t batches_before = batches.value();
    const Partition buf = e.buffered->partition(g, 8);
    EXPECT_GT(batches.value(), batches_before)
        << "buffered pass did not engage";

    EXPECT_TRUE(buf.fully_assigned());
    EXPECT_EQ(buf.num_parts(), 8u);
    const QualityReport q = evaluate(g, buf);
    EXPECT_LT(q.vertex_summary.bias, e.vertex_bias_box);
    EXPECT_LT(q.edge_summary.bias, e.edge_bias_box);
    EXPECT_LE(q.edge_cut_ratio, edge_cut_ratio(g, seq) * 1.05 + 0.005);
  }
}

TEST(ParallelStream, EnvKnobIsDeterministicAcrossThreadCounts) {
  // BPart's buffered pass must also be thread-count independent: the same
  // partition at 1 and 8 scoring workers.
  const Graph g = social_graph();
  BPartConfig cfg;
  cfg.stream_batch = 512;
  cfg.stream_threads = 1;
  const Partition p1 = BPart(cfg).partition(g, 8);
  cfg.stream_threads = 8;
  const Partition p8 = BPart(cfg).partition(g, 8);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(p1[v], p8[v]) << "vertex " << v;
}

TEST(ParallelStream, SubsetBufferedPassLeavesOthersUnassigned) {
  const Graph g = social_graph();
  std::vector<graph::VertexId> subset;
  for (graph::VertexId v = 0; v < g.num_vertices(); v += 2)
    subset.push_back(v);
  const Partition p =
      greedy_stream_partition(g, subset, 4, buffered_cfg(512, 4, 1));
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v % 2 == 0)
      EXPECT_NE(p[v], kUnassigned);
    else
      EXPECT_EQ(p[v], kUnassigned);
  }
}

TEST(ParallelStream, CapacityCapHoldsUnderBuffering) {
  // A clique stream maximizes same-batch herding: every vertex's snapshot
  // score favors the same part, so the exact-state commit fallback is what
  // keeps the cap honest.
  graph::EdgeList el;
  for (graph::VertexId v = 0; v < 256; ++v)
    for (graph::VertexId u = 0; u < 256; ++u)
      if (v != u) el.add(v, u);
  const Graph g = Graph::from_edges(el);
  const auto all = all_vertices(g);
  const Partition p = greedy_stream_partition(g, all, 4, buffered_cfg(64, 4));
  for (auto c : p.vertex_counts()) {
    EXPECT_GT(c, 0u);
    EXPECT_LE(c, 77u);  // 1.2 slack * 64 ideal = 76.8
  }
}

}  // namespace
}  // namespace bpart::partition
