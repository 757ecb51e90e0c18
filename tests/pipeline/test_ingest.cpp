#include "pipeline/ingest.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace bpart::pipeline {
namespace {

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bpart_ingest_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::string write(const std::string& name, const std::string& content) {
    std::ofstream f(path(name), std::ios::binary);
    f << content;
    return path(name);
  }

  std::filesystem::path dir_;
};

void expect_same_edgelist(const graph::EdgeList& a, const graph::EdgeList& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "edge " << i << " differs";
}

TEST_F(IngestTest, MatchesSequentialLoaderOnGeneratedGraph) {
  graph::RmatConfig cfg;
  cfg.scale = 12;
  cfg.edge_factor = 8;
  const graph::EdgeList el = graph::rmat(cfg);
  graph::save_text_edges(el, path("g.txt"));

  const graph::EdgeList seq = graph::load_text_edges(path("g.txt"));
  IngestConfig icfg;
  icfg.threads = 4;
  IngestReport report;
  const graph::EdgeList par = ingest_text_edges(path("g.txt"), icfg, &report);

  expect_same_edgelist(par, seq);
  EXPECT_EQ(report.edges, seq.size());
  EXPECT_GT(report.shards, 1u);
}

TEST_F(IngestTest, DeterministicAcrossThreadAndShardCounts) {
  // ~3 MB, so the 64 KiB shard floor never caps the shard count below
  // 4 per thread at any thread count tried here.
  graph::ErdosRenyiConfig cfg;
  cfg.num_vertices = 1 << 16;
  cfg.num_edges = 1 << 18;
  graph::save_text_edges(graph::erdos_renyi(cfg), path("g.txt"));
  const graph::EdgeList seq = graph::load_text_edges(path("g.txt"));

  for (const unsigned threads : {1u, 2u, 3u, 7u, 8u}) {
    IngestConfig icfg;
    icfg.threads = threads;
    IngestReport report;
    const graph::EdgeList out = ingest_text_edges(path("g.txt"), icfg, &report);
    EXPECT_EQ(report.shards, 4 * threads);
    EXPECT_EQ(report.threads, threads);
    expect_same_edgelist(out, seq);
  }
}

TEST_F(IngestTest, HandlesMessyButValidInput) {
  // CRLF line endings, blank CRLF lines, comments, tabs, commas, extra
  // columns (weights), trailing whitespace and a missing final newline —
  // everything a SNAP/KONECT dump can throw at the parser.
  const std::string messy =
      "# SNAP-style comment\r\n"
      "\r\n"
      "0 1\r\n"
      "1\t2 0.5\r\n"
      "% KONECT-style comment\n"
      "2,3\n"
      "   \t\n"
      " 3 4  \r\n"
      "4 5";
  write("messy.txt", messy);
  IngestConfig cfg;
  cfg.threads = 3;
  const graph::EdgeList el = ingest_text_edges(path("messy.txt"), cfg);
  ASSERT_EQ(el.size(), 5u);
  EXPECT_EQ(el[0], (graph::Edge{0, 1}));
  EXPECT_EQ(el[1], (graph::Edge{1, 2}));
  EXPECT_EQ(el[2], (graph::Edge{2, 3}));
  EXPECT_EQ(el[3], (graph::Edge{3, 4}));
  EXPECT_EQ(el[4], (graph::Edge{4, 5}));
  EXPECT_EQ(el.num_vertices(), 6u);
  // The hardened sequential loader agrees.
  expect_same_edgelist(el, graph::load_text_edges(path("messy.txt")));
}

TEST_F(IngestTest, EmptyAndCommentOnlyFiles) {
  write("empty.txt", "");
  EXPECT_EQ(ingest_text_edges(path("empty.txt")).size(), 0u);
  write("comments.txt", "# nothing\n% here\n\n");
  EXPECT_EQ(ingest_text_edges(path("comments.txt")).size(), 0u);
}

TEST_F(IngestTest, MalformedLineThrowsWithByteOffset) {
  write("bad.txt", "0 1\n1 2\nnot_an_edge\n3 4\n");
  IngestConfig cfg;
  cfg.threads = 4;
  try {
    ingest_text_edges(path("bad.txt"), cfg);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("byte offset 8"), std::string::npos) << what;
  }
}

TEST_F(IngestTest, FirstMalformedLineWinsAcrossShards) {
  // ~1.1 MB, 16 shards at 8 threads; bad lines near 30% and 80% of the
  // file land in shards parsed by different workers. Whichever finishes
  // first, the earlier line must be the one reported.
  std::string text;
  std::size_t first_bad = 0;
  std::size_t second_bad = 0;
  constexpr unsigned kLines = 100000;
  for (unsigned i = 0; i < kLines; ++i) {
    if (i == kLines * 3 / 10) first_bad = text.size();
    if (i == kLines * 8 / 10) second_bad = text.size();
    if (i == kLines * 3 / 10 || i == kLines * 8 / 10) text += "bad line\n";
    text += std::to_string(i) + ' ' + std::to_string(i + 1) + '\n';
  }
  ASSERT_GT(text.size(), 16u * 64 * 1024);
  write("bad.txt", text);
  IngestConfig cfg;
  cfg.threads = 8;
  for (int rep = 0; rep < 3; ++rep) {
    try {
      ingest_text_edges(path("bad.txt"), cfg);
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("byte offset " + std::to_string(first_bad) + ":"),
                std::string::npos)
          << what;
      EXPECT_EQ(what.find("byte offset " + std::to_string(second_bad)),
                std::string::npos)
          << what;
    }
  }
}

TEST_F(IngestTest, LineLongerThanAShardLeavesAShardWithoutLineStarts) {
  // A 300 KB comment and a 300 KB run of trailing blanks after an edge
  // each span whole 64 KiB shards; those shards own no line start and
  // must contribute nothing, while their neighbors parse around them.
  std::string text;
  for (unsigned i = 0; i < 20000; ++i)
    text += std::to_string(i) + ' ' + std::to_string(i * 3 + 1) + '\n';
  text += '#' + std::string(300000, 'x') + '\n';
  for (unsigned i = 0; i < 20000; ++i)
    text += std::to_string(i * 5) + '\t' + std::to_string(i) + '\n';
  text += "7 8" + std::string(300000, ' ') + '\n';
  text += "9 10\n";
  write("long.txt", text);

  IngestConfig cfg;
  cfg.threads = 4;
  IngestReport report;
  const graph::EdgeList el = ingest_text_edges(path("long.txt"), cfg, &report);
  expect_same_edgelist(el, graph::load_text_edges(path("long.txt")));
  EXPECT_EQ(el.size(), 40002u);

  // The case under test really occurs: some shard's byte range holds no
  // line start (the parser cuts shards at bytes * s / shards).
  std::vector<std::uint64_t> starts{0};
  for (std::size_t i = 0; i + 1 < text.size(); ++i)
    if (text[i] == '\n') starts.push_back(i + 1);
  const std::uint64_t bytes = text.size();
  const unsigned shards = report.shards;
  ASSERT_GT(shards, 4u);
  unsigned empty_shards = 0;
  for (unsigned s = 0; s < shards; ++s) {
    const std::uint64_t b = bytes * s / shards;
    const std::uint64_t e = bytes * (s + 1) / shards;
    const auto it = std::lower_bound(starts.begin(), starts.end(), b);
    if (it == starts.end() || *it >= e) ++empty_shards;
  }
  EXPECT_GE(empty_shards, 2u);
}

TEST_F(IngestTest, ReservedVertexIdIsMalformed) {
  // 4294967295 is graph::kInvalidVertex: as an id it would wrap the vertex
  // count to 0 and send the CSR build out of bounds.
  write("max.txt", "0 1\n4294967295 0\n");
  try {
    ingest_text_edges(path("max.txt"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("byte offset 4:"), std::string::npos) << what;
  }
  write("max_dst.txt", "0 4294967295\n");
  EXPECT_THROW(ingest_text_edges(path("max_dst.txt")), std::runtime_error);
  // The largest usable id still parses.
  write("ok.txt", "4294967294 0\n");
  EXPECT_EQ(ingest_text_edges(path("ok.txt")).num_vertices(), 4294967295u);
}

TEST_F(IngestTest, MissingDstThrows) {
  write("half.txt", "42\n");
  EXPECT_THROW(ingest_text_edges(path("half.txt")), std::runtime_error);
}

TEST_F(IngestTest, MissingFileThrows) {
  EXPECT_THROW(ingest_text_edges(path("nope.txt")), std::runtime_error);
}

TEST_F(IngestTest, LargeFileWithTinyShardsDeliversEveryEdgeExactlyOnce) {
  // Many shards, each parsed in 1 MiB reads; the line count is the ground
  // truth.
  std::ofstream f(path("big.txt"), std::ios::binary);
  constexpr unsigned kEdges = 200000;
  for (unsigned i = 0; i < kEdges; ++i)
    f << i % 997 << ' ' << (i * 7 + 1) % 997 << '\n';
  f.close();

  IngestConfig cfg;
  cfg.threads = 8;
  IngestReport report;
  const graph::EdgeList el = ingest_text_edges(path("big.txt"), cfg, &report);
  ASSERT_EQ(el.size(), kEdges);
  for (unsigned i = 0; i < kEdges; i += 1013) {
    EXPECT_EQ(el[i].src, i % 997);
    EXPECT_EQ(el[i].dst, (i * 7 + 1) % 997);
  }
  EXPECT_GT(report.shards, 8u);
}

}  // namespace
}  // namespace bpart::pipeline
