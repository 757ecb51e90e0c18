#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "cluster/bsp.hpp"
#include "obs/attrib.hpp"
#include "obs/timeline.hpp"

#include "json_reader.hpp"

namespace bpart::obs {
namespace {

std::string temp_timeline_path(const std::string& name) {
  return testing::TempDir() + "bpart_" + name + ".json";
}

/// A 2-superstep, 3-machine report whose charged time reconciles exactly:
/// machines 0+1 share worker 0, machine 2 is worker 1; each superstep's
/// wall time equals the gating worker's busy + its wait.
cluster::RunReport make_report() {
  cluster::RunReport report;
  report.num_machines = 3;
  auto step = [&](double c0, double c1, double c2, double w01, double w2) {
    cluster::IterationReport it;
    it.machines.resize(3);
    it.machines[0].compute_seconds = c0;
    it.machines[0].comm_seconds = 0.01;
    it.machines[0].wait_seconds = w01;
    it.machines[0].work_items = 10;
    it.machines[0].messages_sent = 2;
    it.machines[0].bytes_sent = 16;
    it.machines[1].compute_seconds = c1;
    it.machines[1].comm_seconds = 0.01;
    it.machines[1].wait_seconds = w01;
    it.machines[2].compute_seconds = c2;
    it.machines[2].comm_seconds = 0.02;
    it.machines[2].wait_seconds = w2;
    // Gating worker busy + its wait telescopes to the wall time.
    const double busy0 = c0 + c1 + 0.02;
    const double busy1 = c2 + 0.02;
    it.duration_seconds =
        busy0 > busy1 ? busy0 + w01 : busy1 + w2;
    report.iterations.push_back(std::move(it));
  };
  step(0.40, 0.20, 0.30, 0.005, 0.305);  // worker 0 gates (0.62 vs 0.32)
  step(0.10, 0.10, 0.50, 0.31, 0.005);   // worker 1 gates (0.52 vs 0.22)
  return report;
}

const std::vector<std::uint32_t> kGating01{0, 2};  // argmax compute machines
const std::vector<std::uint32_t> kMachineWorker{0, 0, 1};

TEST(Timeline, OffByDefaultEveryEntryPointIsANoOp) {
  timeline_stop();  // force off, whatever earlier tests did
  EXPECT_FALSE(timeline_enabled());
  EXPECT_EQ(timeline_begin_run(4), 0u);
  timeline_record_exec(0, 100, 3, 1.0, {0.1, 0.2});
  {
    ScopedTimelineLabel label("test/off-label");
  }
  timeline_commit_run(1, make_report(), kGating01, {}, kMachineWorker);
  const TimelineData data = timeline_snapshot();
  EXPECT_TRUE(data.runs.empty());
  EXPECT_TRUE(data.workers.empty());
  EXPECT_EQ(timeline_flush(), "");
}

TEST(Timeline, CommitRunRecordsCompleteRows) {
  timeline_stop();
  const std::string path = temp_timeline_path("timeline_rows");
  timeline_start(path);

  std::uint64_t run = 0;
  {
    ScopedTimelineLabel label("test/complete");
    run = timeline_begin_run(3);
  }
  ASSERT_NE(run, 0u);
  std::vector<std::vector<std::uint64_t>> channels(
      2, std::vector<std::uint64_t>(9, 8));
  timeline_commit_run(run, make_report(), kGating01, std::move(channels),
                      kMachineWorker);

  const TimelineData data = timeline_snapshot();
  ASSERT_EQ(data.runs.size(), 1u);
  const TimelineRun& r = data.runs[0];
  EXPECT_EQ(r.label, "test/complete");
  EXPECT_EQ(r.machines, 3u);
  ASSERT_EQ(r.supersteps.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const TimelineSuperstep& step = r.supersteps[s];
    EXPECT_EQ(step.index, s);
    EXPECT_EQ(step.gating_machine, kGating01[s]);
    ASSERT_EQ(step.machines.size(), 3u);
    EXPECT_EQ(step.channel_bytes.size(), 9u);
    for (std::size_t m = 0; m < 3; ++m) {
      EXPECT_EQ(step.machines[m].machine, m);
      EXPECT_EQ(step.machines[m].worker, kMachineWorker[m]);
    }
  }
  EXPECT_EQ(r.supersteps[0].machines[0].work, 10u);
  EXPECT_EQ(r.supersteps[0].machines[0].bytes_sent, 16u);

  // The artifact round-trips as bpart-timeline/v1 JSON.
  ASSERT_EQ(timeline_stop(), path);
  const json::Value doc = json::parse_file(path);
  EXPECT_EQ(doc.at("schema").as_string(), "bpart-timeline/v1");
  ASSERT_EQ(doc.at("runs").size(), 1u);
  EXPECT_EQ(doc.at("runs").at(0).at("supersteps").size(), 2u);
  EXPECT_EQ(doc.at("runs")
                .at(0)
                .at("supersteps")
                .at(0)
                .at("machines")
                .size(),
            3u);
}

TEST(Timeline, AttributionReconcilesWithRunReport) {
  timeline_stop();
  timeline_start(temp_timeline_path("timeline_attrib"));
  const cluster::RunReport report = make_report();
  const std::uint64_t run = timeline_begin_run(3);
  timeline_commit_run(run, report, kGating01, {}, kMachineWorker);

  const TimelineData data = timeline_snapshot();
  ASSERT_EQ(data.runs.size(), 1u);
  const RunAttribution a = attribute_run(data.runs[0]);

  // Charged compute + comm + wait covers the measured wall time within the
  // acceptance gate's 5%, and the totals match the RunReport's own sums.
  EXPECT_NEAR(a.charged_coverage(), 1.0, 0.05);
  EXPECT_NEAR(a.total_seconds, report.total_seconds(), 1e-12);
  ASSERT_EQ(a.supersteps.size(), 2u);
  EXPECT_EQ(a.supersteps[0].gating_worker, 0u);
  EXPECT_EQ(a.supersteps[1].gating_worker, 1u);
  EXPECT_EQ(a.supersteps[0].gating_machine, 0u);
  EXPECT_EQ(a.supersteps[1].gating_machine, 2u);
  ASSERT_EQ(a.gate_counts.size(), 3u);
  EXPECT_EQ(a.gate_counts[0], 1u);
  EXPECT_EQ(a.gate_counts[2], 1u);
  // Step 0: worker 1 idles 0.305s of which the 0.30s busy gap is
  // skew-explained; the rest is residual.
  EXPECT_NEAR(a.supersteps[0].skew_wait, 0.30, 1e-9);
  EXPECT_NEAR(a.supersteps[0].residual_wait, 0.005, 1e-9);
  EXPECT_GT(a.supersteps[0].compute_ratio, 1.0);

  const std::string table = attribution_table(a);
  EXPECT_NE(table.find("who gated how often"), std::string::npos);
  timeline_stop();
}

TEST(Timeline, ExecReservoirStaysBounded) {
  timeline_stop();
  timeline_start(temp_timeline_path("timeline_exec"));
  std::vector<double> batch(100, 0.001);
  timeline_record_exec(7, 100, 5, 0.1, batch);
  timeline_record_exec(7, 100, 2, 0.1, batch);

  const TimelineData data = timeline_snapshot();
  ASSERT_EQ(data.workers.size(), 1u);
  const TimelineWorkerStats& w = data.workers[0];
  EXPECT_EQ(w.worker, 7u);
  EXPECT_EQ(w.chunks, 200u);
  EXPECT_EQ(w.steals, 7u);
  EXPECT_NEAR(w.busy_seconds, 0.2, 1e-12);
  EXPECT_LE(w.sample_seconds.size(), 64u);
  EXPECT_FALSE(w.sample_seconds.empty());
  timeline_stop();
}

TEST(Timeline, ConcurrentRecordingIsSafe) {
  timeline_stop();
  timeline_start(temp_timeline_path("timeline_tsan"));
  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 4;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &committed] {
      ScopedTimelineLabel label("test/concurrent-" + std::to_string(t));
      for (int i = 0; i < kRunsPerThread; ++i) {
        const std::uint64_t run = timeline_begin_run(3);
        timeline_commit_run(run, make_report(), kGating01, {},
                            kMachineWorker);
        timeline_record_exec(static_cast<std::uint32_t>(t), 4, 1, 0.001,
                             {0.0005});
        committed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();

  const TimelineData data = timeline_snapshot();
  EXPECT_EQ(committed.load(), kThreads * kRunsPerThread);
  EXPECT_EQ(data.runs.size(),
            static_cast<std::size_t>(kThreads * kRunsPerThread));
  EXPECT_EQ(data.workers.size(), static_cast<std::size_t>(kThreads));
  for (const TimelineRun& r : data.runs) {
    EXPECT_EQ(r.supersteps.size(), 2u);
    EXPECT_NE(r.label.find("test/concurrent-"), std::string::npos);
  }
  timeline_stop();
}

}  // namespace
}  // namespace bpart::obs
