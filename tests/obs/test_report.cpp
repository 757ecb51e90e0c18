#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "cluster/bsp.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/table.hpp"

#include "json_reader.hpp"

namespace bpart::obs {
namespace {

cluster::RunReport sample_run_report() {
  cluster::RunReport r;
  r.num_machines = 2;
  for (int iter = 0; iter < 3; ++iter) {
    cluster::IterationReport it;
    it.duration_seconds = 0.5 + 0.1 * iter;
    for (int m = 0; m < 2; ++m) {
      cluster::MachineIterationStats s;
      s.work_items = 100 + 10 * m + iter;
      s.messages_sent = 7 * (m + 1);
      s.messages_received = 7 * (2 - m);
      s.bytes_sent = s.messages_sent * 16;
      s.bytes_received = s.messages_received * 16;
      s.compute_seconds = 0.25 + 0.05 * m;
      s.comm_seconds = 0.03;
      s.wait_seconds = 0.02 * (m + 1);
      it.machines.push_back(s);
    }
    r.iterations.push_back(std::move(it));
  }
  return r;
}

TEST(RunReportJson, RoundTripPreservesEveryField) {
  const cluster::RunReport orig = sample_run_report();
  const cluster::RunReport back =
      run_report_from_json(json::parse(run_report_json(orig)));

  ASSERT_EQ(back.num_machines, orig.num_machines);
  ASSERT_EQ(back.iterations.size(), orig.iterations.size());
  for (std::size_t i = 0; i < orig.iterations.size(); ++i) {
    const auto& a = orig.iterations[i];
    const auto& b = back.iterations[i];
    EXPECT_DOUBLE_EQ(b.duration_seconds, a.duration_seconds);
    ASSERT_EQ(b.machines.size(), a.machines.size());
    for (std::size_t m = 0; m < a.machines.size(); ++m) {
      EXPECT_EQ(b.machines[m].work_items, a.machines[m].work_items);
      EXPECT_EQ(b.machines[m].messages_sent, a.machines[m].messages_sent);
      EXPECT_EQ(b.machines[m].messages_received,
                a.machines[m].messages_received);
      EXPECT_EQ(b.machines[m].bytes_sent, a.machines[m].bytes_sent);
      EXPECT_EQ(b.machines[m].bytes_received, a.machines[m].bytes_received);
      EXPECT_DOUBLE_EQ(b.machines[m].compute_seconds,
                       a.machines[m].compute_seconds);
      EXPECT_DOUBLE_EQ(b.machines[m].comm_seconds, a.machines[m].comm_seconds);
      EXPECT_DOUBLE_EQ(b.machines[m].wait_seconds, a.machines[m].wait_seconds);
    }
  }
  // Derived metrics agree after the round trip.
  EXPECT_DOUBLE_EQ(back.total_seconds(), orig.total_seconds());
  EXPECT_DOUBLE_EQ(back.wait_ratio(), orig.wait_ratio());
  EXPECT_EQ(back.total_bytes_sent(), orig.total_bytes_sent());
}

TEST(RunReportJson, TotalsMatchRunReportMethods) {
  const cluster::RunReport r = sample_run_report();
  const json::Value v = json::parse(run_report_json(r));
  const json::Value& totals = v.at("totals");
  EXPECT_DOUBLE_EQ(totals.at("seconds").as_double(), r.total_seconds());
  EXPECT_DOUBLE_EQ(totals.at("wait_ratio").as_double(), r.wait_ratio());
  EXPECT_EQ(totals.at("bytes_sent").as_uint(), r.total_bytes_sent());
  EXPECT_EQ(totals.at("iterations").as_uint(), r.iterations.size());
}

TEST(RunReportJson, MalformedDocumentThrows) {
  EXPECT_THROW((void)run_report_from_json(json::parse(R"({"foo":1})")),
               std::runtime_error);
}

TEST(MetricsJson, SerializesCountersGaugesAndLatencies) {
  metrics_reset();
  counter("report.test.counter").add(11);
  latency("report.test.latency").record_ns(700);  // bucket [512, 1024)

  const json::Value v = json::parse(metrics_json(metrics_snapshot()));
  EXPECT_EQ(v.at("counters").at("report.test.counter").as_uint(), 11u);
  EXPECT_FALSE(v.contains("gauges"));

  const json::Value& lat = v.at("latencies").at("report.test.latency");
  EXPECT_EQ(lat.at("count").as_uint(), 1u);
  EXPECT_EQ(lat.at("sum_ns").as_uint(), 700u);
  EXPECT_EQ(lat.at("max_ns").as_uint(), 700u);
  bool found_bucket = false;
  for (const auto& pair : lat.at("buckets").as_array()) {
    if (pair.at(0).as_uint() == 512u) {
      EXPECT_EQ(pair.at(1).as_uint(), 1u);
      found_bucket = true;
    }
  }
  EXPECT_TRUE(found_bucket);
}

TEST(BenchReport, ProducesSchemaValidDocument) {
  metrics_reset();
  BenchReport r;
  r.set_name("unit");
  Table t({"algo", "seconds"});
  t.row().cell("bpart").cell(1.5);
  t.row().cell("hash").cell(0.5);
  r.set_table(t);
  r.add_info("title", "unit test");
  r.add_info("dataset_scale", 0.25);
  r.add_run("bpart/pagerank/measured", sample_run_report());

  const json::Value v = json::parse(r.to_json());
  EXPECT_EQ(v.at("schema").as_string(), BenchReport::kSchema);
  EXPECT_EQ(v.at("name").as_string(), "unit");
  EXPECT_GT(v.at("created_unix").as_uint(), 0u);
  EXPECT_EQ(v.at("info").at("title").as_string(), "unit test");
  EXPECT_DOUBLE_EQ(v.at("info").at("dataset_scale").as_double(), 0.25);

  const json::Value& table = v.at("table");
  ASSERT_EQ(table.at("headers").size(), 2u);
  EXPECT_EQ(table.at("headers").at(0).as_string(), "algo");
  ASSERT_EQ(table.at("rows").size(), 2u);
  EXPECT_EQ(table.at("rows").at(0).at(0).as_string(), "bpart");
  EXPECT_DOUBLE_EQ(table.at("rows").at(0).at(1).as_double(), 1.5);

  ASSERT_EQ(v.at("runs").size(), 1u);
  EXPECT_EQ(v.at("runs").at(0).at("label").as_string(),
            "bpart/pagerank/measured");
  const cluster::RunReport back =
      run_report_from_json(v.at("runs").at(0).at("report"));
  EXPECT_EQ(back.num_machines, 2u);

  EXPECT_TRUE(v.at("metrics").is_object());
}

TEST(BenchReport, InfoKeysAreReplacedNotDuplicated) {
  BenchReport r;
  r.add_info("title", "first");
  r.add_info("title", "second");
  const json::Value v = json::parse(r.to_json());
  EXPECT_EQ(v.at("info").at("title").as_string(), "second");
  // The JSON parser's object map would hide duplicates; check the raw text.
  const std::string raw = r.to_json();
  EXPECT_EQ(raw.find("\"title\""), raw.rfind("\"title\""));
}

TEST(BenchReport, WriteCreatesNamedFile) {
  BenchReport r;
  r.set_name("write_test");
  const std::string dir = testing::TempDir();
  const std::string path = r.write(dir);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BENCH_write_test.json"), std::string::npos);
  const json::Value v = json::parse_file(path);
  EXPECT_EQ(v.at("schema").as_string(), BenchReport::kSchema);
  EXPECT_EQ(v.at("table").at("headers").size(), 0u);  // no table attached
}

TEST(BenchReport, ClearResetsToEmptyState) {
  BenchReport r;
  r.set_name("cleared");
  r.add_run("x", sample_run_report());
  r.clear();
  EXPECT_EQ(r.name(), "unnamed");
  const json::Value v = json::parse(r.to_json());
  EXPECT_FALSE(v.contains("runs"));
}

}  // namespace
}  // namespace bpart::obs
