#include "pipeline/runner.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/reorder.hpp"
#include "partition/registry.hpp"

namespace bpart::pipeline {
namespace {

namespace fs = std::filesystem;

class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("bpart_runner_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    graph::CommunityGraphConfig gen;
    gen.num_vertices = 1 << 11;
    gen.avg_degree = 12;
    gen.num_communities = 16;
    gen.seed = 7;
    input_ = (dir_ / "graph.txt").string();
    graph::save_text_edges(graph::community_scale_free(gen), input_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] PipelineConfig config() const {
    PipelineConfig cfg;
    cfg.ingest.threads = 4;
    cfg.cache_dir = (dir_ / "cache").string();
    return cfg;
  }

  fs::path dir_;
  std::string input_;
};

void expect_same_partition(const partition::Partition& a,
                           const partition::Partition& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_parts(), b.num_parts());
  EXPECT_TRUE(std::ranges::equal(a.assignment(), b.assignment()));
}

TEST_F(RunnerTest, DeterministicModeMatchesLegacySingleStreamPath) {
  // The pipeline must produce exactly the partition the pre-pipeline code
  // path (load_text_edges -> from_edges -> registry) produced.
  const graph::Graph legacy_g =
      graph::Graph::from_edges(graph::load_text_edges(input_));
  const partition::Partition legacy_p =
      partition::create("bpart")->partition(legacy_g, 8);

  PipelineRunner runner(config());
  const auto result = runner.run_file(input_, "bpart", 8);
  EXPECT_EQ(result.graph.num_vertices(), legacy_g.num_vertices());
  EXPECT_EQ(result.graph.num_edges(), legacy_g.num_edges());
  expect_same_partition(result.partition, legacy_p);
  EXPECT_FALSE(runner.report().graph_cache_hit);
  EXPECT_FALSE(runner.report().partition_cache_hit);
  EXPECT_GT(runner.report().ingest.edges, 0u);
  EXPECT_GT(runner.report().degree_summary.n, 0u);
}

TEST_F(RunnerTest, WarmRunHitsCacheAndIsBitIdentical) {
  PipelineRunner cold(config());
  const auto first = cold.run_file(input_, "fennel", 4);
  ASSERT_FALSE(cold.report().partition_cache_hit);

  PipelineRunner warm(config());
  const auto second = warm.run_file(input_, "fennel", 4);
  EXPECT_TRUE(warm.report().graph_cache_hit);
  EXPECT_TRUE(warm.report().partition_cache_hit);
  EXPECT_EQ(warm.report().partition_seconds, 0.0);
  EXPECT_EQ(warm.report().ingest.edges, 0u) << "warm run must skip parsing";
  expect_same_partition(second.partition, first.partition);
  EXPECT_EQ(second.graph.num_edges(), first.graph.num_edges());
}

TEST_F(RunnerTest, CorruptCacheEntryIsRebuiltTransparently) {
  PipelineRunner cold(config());
  const auto first = cold.run_file(input_, "bpart", 4);

  // Truncate every cached artifact.
  for (const auto& entry : fs::directory_iterator(dir_ / "cache"))
    fs::resize_file(entry.path(), fs::file_size(entry.path()) / 3);

  PipelineRunner retry(config());
  const auto second = retry.run_file(input_, "bpart", 4);
  EXPECT_FALSE(retry.report().graph_cache_hit);
  EXPECT_FALSE(retry.report().partition_cache_hit);
  expect_same_partition(second.partition, first.partition);

  // And the rebuilt entries serve the next run.
  PipelineRunner warm(config());
  (void)warm.run_file(input_, "bpart", 4);
  EXPECT_TRUE(warm.report().graph_cache_hit);
  EXPECT_TRUE(warm.report().partition_cache_hit);
}

TEST_F(RunnerTest, EditingInputInvalidatesGraphKey) {
  PipelineRunner runner(config());
  (void)runner.run_file(input_, "hash", 4);
  ASSERT_TRUE(runner.cache_active());

  // Append one edge: the content hash, and therefore the key, changes.
  std::ofstream(input_, std::ios::app) << "0 1\n";
  PipelineRunner after(config());
  (void)after.run_file(input_, "hash", 4);
  EXPECT_FALSE(after.report().graph_cache_hit);
  EXPECT_FALSE(after.report().partition_cache_hit);
}

TEST_F(RunnerTest, CacheCanBeDisabled) {
  PipelineConfig cfg = config();
  cfg.use_cache = false;
  PipelineRunner runner(cfg);
  (void)runner.run_file(input_, "hash", 4);
  EXPECT_FALSE(fs::exists(dir_ / "cache"));

  PipelineRunner again(cfg);
  (void)again.run_file(input_, "hash", 4);
  EXPECT_FALSE(again.report().graph_cache_hit);
}

TEST_F(RunnerTest, ReservedVertexIdThrowsInsteadOfCrashing) {
  // As an id, 4294967295 would wrap the edge list's vertex count to 0 and
  // send the CSR build to offsets[2^32]. With the cache on or off and either
  // CSR build, it must be a clean parse error.
  const std::string bad = (dir_ / "max.txt").string();
  {
    std::ofstream f(bad);
    f << "0 1\n4294967295 0\n";
  }
  for (const bool cache : {true, false}) {
    for (const bool sym : {false, true}) {
      PipelineConfig cfg = config();
      cfg.use_cache = cache;
      cfg.symmetrize = sym;
      PipelineRunner runner(cfg);
      EXPECT_THROW((void)runner.run_file(bad, "bpart", 4), std::runtime_error);
    }
  }
}

TEST_F(RunnerTest, SymmetrizeModeMatchesLegacySymmetricBuild) {
  PipelineConfig cfg = config();
  cfg.symmetrize = true;
  PipelineRunner runner(cfg);
  const graph::Graph g = runner.load_graph(input_);
  const graph::Graph legacy =
      graph::Graph::from_edges_symmetric(graph::load_text_edges(input_));
  ASSERT_EQ(g.num_vertices(), legacy.num_vertices());
  ASSERT_EQ(g.num_edges(), legacy.num_edges());
  EXPECT_TRUE(std::ranges::equal(g.out_offsets(), legacy.out_offsets()));
  EXPECT_TRUE(std::ranges::equal(g.out_targets(), legacy.out_targets()));
}

TEST_F(RunnerTest, DifferentGraphUnderSameKeyMissesPartitionCache) {
  // Regression: the partition key used to hash only the input file + algo +
  // k, so partition_graph() served the file's cached partition for any
  // graph passed under that file's key. The key now folds in
  // graph_revision(), a content hash of the CSR itself.
  PipelineRunner runner(config());
  const auto first = runner.run_file(input_, "fennel", 4);
  ASSERT_FALSE(runner.report().partition_cache_hit);

  // The first graph's edges plus {0->1, 1->0}.
  graph::EdgeList edges(first.graph.num_vertices());
  for (graph::VertexId v = 0; v < first.graph.num_vertices(); ++v)
    for (const graph::VertexId u : first.graph.out_neighbors(v))
      edges.add(v, u);
  edges.add(0, 1);
  edges.add(1, 0);
  const graph::Graph grown = graph::Graph::from_edges(edges);
  ASSERT_EQ(grown.num_edges(), first.graph.num_edges() + 2);
  ASSERT_NE(graph_revision(grown), graph_revision(first.graph));

  PipelineRunner after(config());
  const partition::Partition p =
      after.partition_graph(grown, after.graph_key(input_), "fennel", 4);
  EXPECT_FALSE(after.report().partition_cache_hit)
      << "another graph must not reuse the file graph's cached partition";
  EXPECT_EQ(p.num_vertices(), grown.num_vertices());

  // The unmodified graph still hits its own entry.
  PipelineRunner warm(config());
  (void)warm.run_file(input_, "fennel", 4);
  EXPECT_TRUE(warm.report().partition_cache_hit);
}

TEST_F(RunnerTest, ReorderStageRelabelsAndExposesThePermutation) {
  PipelineConfig cfg = config();
  cfg.reorder = ReorderMode::kDegree;
  PipelineRunner runner(cfg);
  const auto result = runner.run_file(input_, "chunk-v", 4);

  // The permutation is a real permutation and the graph is the base graph
  // relabeled by exactly it.
  ASSERT_FALSE(result.perm.empty());
  ASSERT_TRUE(graph::is_permutation(result.perm));
  EXPECT_EQ(result.perm, runner.permutation());
  const graph::Graph base =
      graph::Graph::from_edges(graph::load_text_edges(input_));
  const graph::Graph relabeled = graph::apply_permutation(base, result.perm);
  EXPECT_TRUE(std::ranges::equal(result.graph.out_offsets(),
                                 relabeled.out_offsets()));
  EXPECT_TRUE(std::ranges::equal(result.graph.out_targets(),
                                 relabeled.out_targets()));

  // Degree mode: hubs first.
  for (graph::VertexId v = 1; v < result.graph.num_vertices(); ++v)
    ASSERT_GE(result.graph.out_degree(v - 1), result.graph.out_degree(v));

  // to_internal/unpermute round the boundary: a per-vertex value computed
  // in internal ids lands back on the external id.
  std::vector<graph::VertexId> internal_ids(result.graph.num_vertices());
  for (graph::VertexId v = 0; v < result.graph.num_vertices(); ++v)
    internal_ids[v] = v;
  const auto external = PipelineRunner::unpermute(internal_ids, result.perm);
  for (graph::VertexId v = 0; v < base.num_vertices(); ++v)
    EXPECT_EQ(external[v], PipelineRunner::to_internal(v, result.perm));
}

TEST_F(RunnerTest, WarmReorderRunHitsTheReorderedCache) {
  PipelineConfig cfg = config();
  cfg.reorder = ReorderMode::kBfs;
  PipelineRunner cold(cfg);
  const auto first = cold.run_file(input_, "chunk-v", 4);
  ASSERT_FALSE(cold.report().reorder_cache_hit);

  PipelineRunner warm(cfg);
  const auto second = warm.run_file(input_, "chunk-v", 4);
  EXPECT_TRUE(warm.report().graph_cache_hit);
  EXPECT_TRUE(warm.report().reorder_cache_hit);
  EXPECT_TRUE(warm.report().partition_cache_hit);
  EXPECT_EQ(second.perm, first.perm);
  EXPECT_EQ(second.graph.num_edges(), first.graph.num_edges());
  EXPECT_TRUE(std::ranges::equal(second.graph.out_targets(),
                                 first.graph.out_targets()));
  expect_same_partition(second.partition, first.partition);
}

TEST_F(RunnerTest, ReorderModesGetDistinctCacheEntriesAndNoneKeepsLegacyKey) {
  // A kNone run and a default-config run share the historical key (warm
  // caches survive the reorder feature), while each mode keys its own
  // graph+perm pair.
  PipelineRunner plain(config());
  (void)plain.run_file(input_, "chunk-v", 4);

  PipelineConfig none_cfg = config();
  none_cfg.reorder = ReorderMode::kNone;
  PipelineRunner none(none_cfg);
  const auto none_result = none.run_file(input_, "chunk-v", 4);
  EXPECT_TRUE(none.report().graph_cache_hit);
  EXPECT_FALSE(none.report().reorder_cache_hit);
  EXPECT_TRUE(none_result.perm.empty()) << "identity order has no perm";

  PipelineConfig deg_cfg = config();
  deg_cfg.reorder = ReorderMode::kDegree;
  PipelineRunner deg(deg_cfg);
  (void)deg.run_file(input_, "chunk-v", 4);
  EXPECT_FALSE(deg.report().reorder_cache_hit)
      << "degree order must not reuse the identity entry";
  EXPECT_NE(deg.graph_key(input_).hash(), none.graph_key(input_).hash());

  // Random order folds the seed into the key.
  PipelineConfig r1 = config();
  r1.reorder = ReorderMode::kRandom;
  r1.reorder_seed = 1;
  PipelineConfig r2 = r1;
  r2.reorder_seed = 2;
  EXPECT_NE(PipelineRunner(r1).graph_key(input_).hash(),
            PipelineRunner(r2).graph_key(input_).hash());
}

}  // namespace
}  // namespace bpart::pipeline
