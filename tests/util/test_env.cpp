#include "util/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "engine/pagerank.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "partition/registry.hpp"
#include "pipeline/runner.hpp"

namespace bpart {
namespace {

class ThreadCountTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("BPART_THREADS"); }
};

TEST_F(ThreadCountTest, DefaultsToAtLeastOne) {
  unsetenv("BPART_THREADS");
  EXPECT_GE(thread_count(), 1u);
}

TEST_F(ThreadCountTest, HonorsEnvOverride) {
  setenv("BPART_THREADS", "3", 1);
  EXPECT_EQ(thread_count(), 3u);
}

TEST_F(ThreadCountTest, RequestedCapsTheResult) {
  setenv("BPART_THREADS", "16", 1);
  EXPECT_EQ(thread_count(4), 4u);
  EXPECT_EQ(thread_count(32), 16u);
}

TEST_F(ThreadCountTest, ClampsHugeValues) {
  setenv("BPART_THREADS", "100000", 1);
  EXPECT_EQ(thread_count(), 256u);
}

TEST_F(ThreadCountTest, JunkFallsThroughToDefault) {
  setenv("BPART_THREADS", "banana", 1);
  const unsigned junk = thread_count();
  unsetenv("BPART_THREADS");
  EXPECT_EQ(junk, thread_count());

  setenv("BPART_THREADS", "0", 1);
  EXPECT_EQ(thread_count(), junk);
  setenv("BPART_THREADS", "-2", 1);
  EXPECT_EQ(thread_count(), junk);
}

TEST_F(ThreadCountTest, RereadsEnvironmentEachCall) {
  setenv("BPART_THREADS", "2", 1);
  EXPECT_EQ(thread_count(), 2u);
  setenv("BPART_THREADS", "5", 1);
  EXPECT_EQ(thread_count(), 5u);
}

TEST_F(ThreadCountTest, DefaultFollowsAffinityMask) {
#ifdef __linux__
  unsetenv("BPART_THREADS");
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const unsigned pinned = thread_count();
  setenv("BPART_THREADS", "3", 1);
  const unsigned overridden = thread_count();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(overridden, 3u) << "BPART_THREADS still wins";
#else
  GTEST_SKIP() << "affinity masks are read on Linux only";
#endif
}

class ExecThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* env = std::getenv("BPART_EXEC_THREADS");
    saved_ = env != nullptr ? std::optional<std::string>(env) : std::nullopt;
  }
  void TearDown() override {
    if (saved_) {
      setenv("BPART_EXEC_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("BPART_EXEC_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST_F(ExecThreadsTest, DefaultsToOneWorkerAndJunkFallsThrough) {
  // Every app runs on the exec core, so the knob never resolves to 0.
  unsetenv("BPART_EXEC_THREADS");
  EXPECT_EQ(exec_threads(), 1u);
  for (const char* junk : {"0", "-3", "banana"}) {
    setenv("BPART_EXEC_THREADS", junk, 1);
    EXPECT_EQ(exec_threads(), 1u) << junk;
  }
  setenv("BPART_EXEC_THREADS", "6", 1);
  EXPECT_EQ(exec_threads(), 6u);
}

/// Clears the numeric knobs, and the retired knobs RetiredKnobsChangeNothing
/// sets, for each case and restores them afterwards, so a case may set any
/// of them.
class EnvKnobs : public ::testing::Test {
 protected:
  static constexpr const char* kKnobs[] = {
      "BPART_THREADS",      "BPART_EXEC_THREADS", "BPART_SEED",
      "BPART_SCALE",        "BPART_EXEC_CHUNK",   "BPART_VCUT_BATCH",
      "BPART_STREAM_BATCH", "BPART_PIN",          "BPART_REORDER"};

  void SetUp() override {
    for (const char* knob : kKnobs) {
      const char* env = std::getenv(knob);
      saved_.push_back(env != nullptr ? std::optional<std::string>(env)
                                      : std::nullopt);
      unsetenv(knob);
    }
  }
  void TearDown() override {
    for (std::size_t i = 0; i < saved_.size(); ++i) {
      if (saved_[i]) {
        setenv(kKnobs[i], saved_[i]->c_str(), 1);
      } else {
        unsetenv(kKnobs[i]);
      }
    }
  }

 private:
  std::vector<std::optional<std::string>> saved_;
};

TEST_F(EnvKnobs, JunkSuffixFallsThroughToDefault) {
  // A prefix parse would read each of these as its leading number.
  const unsigned cpus = thread_count();
  const std::string threads = std::to_string(cpus % 256 + 1) + "x";
  setenv("BPART_THREADS", threads.c_str(), 1);
  EXPECT_EQ(thread_count(), cpus) << threads;

  for (const char* junk : {"2x", "128k", "1e6", "64 ", " 64", "+64", "0x40"}) {
    setenv("BPART_EXEC_THREADS", junk, 1);
    EXPECT_EQ(exec_threads(), 1u) << '"' << junk << '"';
  }

  // dataset_scale() keeps its first read; no other case in this binary
  // calls it.
  setenv("BPART_SCALE", "0.5x", 1);
  EXPECT_EQ(dataset_scale(), 1.0);
}

TEST_F(EnvKnobs, AboveMaximumClamps) {
  setenv("BPART_THREADS", "99999999", 1);
  EXPECT_EQ(thread_count(), 256u);
  setenv("BPART_EXEC_THREADS", "99999999", 1);
  EXPECT_EQ(exec_threads(), 256u);
  // Past uint64 is still a whole number, so it clamps too.
  setenv("BPART_EXEC_THREADS", "99999999999999999999999", 1);
  EXPECT_EQ(exec_threads(), 256u);
}

/// What default-configured runs of the layers the retired knobs used to
/// steer produce: the exec-core chunks of an ExecConfig{} app, the
/// pipeline's reorder mode and shuffle seed, and the registry BPart
/// placement.
struct DefaultRuns {
  std::uint64_t pagerank_chunks = 0;
  ReorderMode reorder = ReorderMode::kNone;
  std::uint64_t reorder_seed = 0;
  std::vector<partition::PartId> bpart;
};

DefaultRuns default_runs(const graph::Graph& g) {
  DefaultRuns r;
  const partition::Partition p = partition::create("bpart")->partition(g, 8);
  r.bpart.assign(p.assignment().begin(), p.assignment().end());
  obs::Counter& chunks = obs::counter("exec.chunks");
  const std::uint64_t before = chunks.value();
  engine::PageRankConfig pr;
  pr.iterations = 1;
  (void)engine::pagerank(g, p, pr);
  r.pagerank_chunks = chunks.value() - before;
  r.reorder = pipeline::PipelineConfig{}.reorder;
  r.reorder_seed = pipeline::PipelineConfig{}.reorder_seed;
  return r;
}

TEST_F(EnvKnobs, RetiredKnobsChangeNothing) {
  // Chunk size, the stream batch, the reorder mode and its shuffle seed
  // come from their config structs only, and no thread is pinned: setting
  // the retired variables to non-default values must leave every run as it
  // was.
  graph::CommunityGraphConfig cfg;
  cfg.num_vertices = 1 << 12;
  cfg.avg_degree = 12.0;
  cfg.seed = 3;
  const graph::Graph g =
      graph::Graph::from_edges_symmetric(graph::community_scale_free(cfg));
  const DefaultRuns unset = default_runs(g);

  setenv("BPART_EXEC_CHUNK", "64", 1);
  setenv("BPART_VCUT_BATCH", "64", 1);
  setenv("BPART_STREAM_BATCH", "64", 1);
  setenv("BPART_PIN", "1", 1);
  setenv("BPART_REORDER", "degree", 1);
  setenv("BPART_SEED", "12345", 1);
  const DefaultRuns set = default_runs(g);

  EXPECT_GT(unset.pagerank_chunks, 0u);
  EXPECT_EQ(set.pagerank_chunks, unset.pagerank_chunks);
  EXPECT_EQ(set.reorder, ReorderMode::kNone);
  EXPECT_EQ(unset.reorder_seed, 17u);  // random-reorder cache keys stay put
  EXPECT_EQ(set.reorder_seed, unset.reorder_seed);
  EXPECT_EQ(set.bpart, unset.bpart);
}

}  // namespace
}  // namespace bpart
