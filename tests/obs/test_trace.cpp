#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

#include "json_reader.hpp"

namespace bpart::obs {
namespace {

std::string temp_trace_path(const std::string& name) {
  return testing::TempDir() + "bpart_" + name + ".json";
}

/// Collect the "X" (complete) events of a trace document.
std::vector<json::Value> complete_events(const json::Value& doc) {
  std::vector<json::Value> out;
  const auto& events = doc.at("traceEvents").as_array();
  for (const auto& e : events)
    if (e.at("ph").as_string() == "X") out.push_back(e);
  return out;
}

TEST(Trace, DisabledSpansAreNoOps) {
  trace_stop();  // ensure off, whatever earlier tests did
  {
    BPART_SPAN("test/disabled");
    BPART_SPAN("test/disabled_args", "n", 3.0);
  }
  EXPECT_FALSE(trace_enabled());
  EXPECT_EQ(trace_flush(), "");
}

TEST(Trace, ExportsCompleteEventsWithCategoryAndArgs) {
  const std::string path = temp_trace_path("trace_basic");
  trace_start(path);
  {
    BPART_SPAN("testphase/outer", "vertices", 128.0);
    BPART_SPAN("testphase/inner", "k", 8.0, "layer", 2.0);
  }
  ASSERT_EQ(trace_stop(), path);

  const json::Value doc = json::parse_file(path);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto events = complete_events(doc);
  ASSERT_GE(events.size(), 2u);

  std::map<std::string, const json::Value*> by_name;
  for (const auto& e : events) by_name[e.at("name").as_string()] = &e;
  ASSERT_TRUE(by_name.count("testphase/outer"));
  ASSERT_TRUE(by_name.count("testphase/inner"));

  const json::Value& outer = *by_name["testphase/outer"];
  EXPECT_EQ(outer.at("cat").as_string(), "testphase");
  EXPECT_DOUBLE_EQ(outer.at("args").at("vertices").as_double(), 128.0);

  const json::Value& inner = *by_name["testphase/inner"];
  EXPECT_DOUBLE_EQ(inner.at("args").at("k").as_double(), 8.0);
  EXPECT_DOUBLE_EQ(inner.at("args").at("layer").as_double(), 2.0);
}

TEST(Trace, NestedSpansRecordDepthAndContainment) {
  const std::string path = temp_trace_path("trace_nesting");
  trace_start(path);
  {
    BPART_SPAN("nest/a");
    {
      BPART_SPAN("nest/b");
      { BPART_SPAN("nest/c"); }
    }
  }
  ASSERT_EQ(trace_stop(), path);

  const json::Value doc = json::parse_file(path);
  std::map<std::string, double> depth;
  std::map<std::string, std::pair<double, double>> window;  // ts, ts+dur
  for (const auto& e : complete_events(doc)) {
    const std::string& name = e.at("name").as_string();
    if (name.rfind("nest/", 0) != 0) continue;
    depth[name] = e.at("args").at("depth").as_double();
    window[name] = {e.at("ts").as_double(),
                    e.at("ts").as_double() + e.at("dur").as_double()};
  }
  ASSERT_EQ(depth.size(), 3u);
  EXPECT_EQ(depth["nest/a"], 0.0);
  EXPECT_EQ(depth["nest/b"], 1.0);
  EXPECT_EQ(depth["nest/c"], 2.0);
  // Child windows sit inside the parent's.
  EXPECT_GE(window["nest/b"].first, window["nest/a"].first);
  EXPECT_LE(window["nest/b"].second, window["nest/a"].second);
  EXPECT_GE(window["nest/c"].first, window["nest/b"].first);
  EXPECT_LE(window["nest/c"].second, window["nest/b"].second);
}

TEST(Trace, ThreadsGetDistinctTrackIds) {
  const std::string path = temp_trace_path("trace_threads");
  trace_start(path);
  constexpr unsigned kThreads = 4;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t)
    threads.emplace_back([] { BPART_SPAN("threads/worker"); });
  for (auto& t : threads) t.join();
  ASSERT_EQ(trace_stop(), path);

  const json::Value doc = json::parse_file(path);
  std::set<double> tids;
  for (const auto& e : complete_events(doc))
    if (e.at("name").as_string() == "threads/worker")
      tids.insert(e.at("tid").as_double());
  EXPECT_EQ(tids.size(), kThreads);
}

TEST(Trace, NameWithoutSlashFallsBackToMiscCategory) {
  const std::string path = temp_trace_path("trace_misc");
  trace_start(path);
  { BPART_SPAN("bare_name"); }
  ASSERT_EQ(trace_stop(), path);

  const json::Value doc = json::parse_file(path);
  bool found = false;
  for (const auto& e : complete_events(doc))
    if (e.at("name").as_string() == "bare_name") {
      found = true;
      EXPECT_EQ(e.at("cat").as_string(), "misc");
    }
  EXPECT_TRUE(found);
}

TEST(Trace, StopClearsBuffersForNextSession) {
  const std::string path1 = temp_trace_path("trace_session1");
  trace_start(path1);
  { BPART_SPAN("session1/only"); }
  trace_stop();

  const std::string path2 = temp_trace_path("trace_session2");
  trace_start(path2);
  { BPART_SPAN("session2/only"); }
  ASSERT_EQ(trace_stop(), path2);

  const json::Value doc = json::parse_file(path2);
  for (const auto& e : complete_events(doc))
    EXPECT_NE(e.at("name").as_string(), "session1/only");
}

TEST(Trace, ExportIncludesProcessMetadataAndDropCount) {
  const std::string path = temp_trace_path("trace_meta");
  trace_start(path);
  { BPART_SPAN("meta/span"); }
  ASSERT_EQ(trace_stop(), path);

  const json::Value doc = json::parse_file(path);
  EXPECT_EQ(doc.at("otherData").at("dropped_events").as_uint(), 0u);
  bool meta = false;
  for (const auto& e : doc.at("traceEvents").as_array())
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "process_name")
      meta = true;
  EXPECT_TRUE(meta);
}

}  // namespace
}  // namespace bpart::obs
