#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

namespace bpart::graph {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest -j runs sibling tests of this fixture in
    // parallel processes, and a shared directory makes TearDown of one
    // race the writes of another.
    dir_ = std::filesystem::temp_directory_path() /
           ("bpart_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
  EdgeList el;
  el.add(0, 1);
  el.add(3, 2);
  el.add(1, 0);
  save_text_edges(el, path("g.txt"));
  const EdgeList loaded = load_text_edges(path("g.txt"));
  ASSERT_EQ(loaded.size(), el.size());
  for (std::size_t i = 0; i < el.size(); ++i) EXPECT_EQ(loaded[i], el[i]);
  EXPECT_EQ(loaded.num_vertices(), el.num_vertices());
}

TEST_F(IoTest, TextParsesCommentsAndBlanks) {
  std::ofstream f(path("c.txt"));
  f << "# comment\n\n% another comment\n 0 1\n2\t3\n4,5\n";
  f.close();
  const EdgeList el = load_text_edges(path("c.txt"));
  ASSERT_EQ(el.size(), 3u);
  EXPECT_EQ(el[0], (Edge{0, 1}));
  EXPECT_EQ(el[1], (Edge{2, 3}));
  EXPECT_EQ(el[2], (Edge{4, 5}));
}

TEST_F(IoTest, TextHandlesTrailingWhitespaceAndCrlf) {
  std::ofstream f(path("w.txt"), std::ios::binary);
  f << "7 8 \r\n9 10\r\n";
  f.close();
  const EdgeList el = load_text_edges(path("w.txt"));
  ASSERT_EQ(el.size(), 2u);
  EXPECT_EQ(el[0], (Edge{7, 8}));
  EXPECT_EQ(el[1], (Edge{9, 10}));
}

TEST_F(IoTest, TextHandlesCrlfBlankAndCommentLines) {
  // Verbatim shape of a SNAP dump saved with Windows line endings: CRLF
  // everywhere, a blank CRLF line, and a '\r'-terminated comment.
  std::ofstream f(path("crlf.txt"), std::ios::binary);
  f << "# Directed graph\r\n\r\n0 1\r\n1\t2\r\n\r\n2 3\r\n";
  f.close();
  const EdgeList el = load_text_edges(path("crlf.txt"));
  ASSERT_EQ(el.size(), 3u);
  EXPECT_EQ(el[0], (Edge{0, 1}));
  EXPECT_EQ(el[1], (Edge{1, 2}));
  EXPECT_EQ(el[2], (Edge{2, 3}));
}

TEST_F(IoTest, TextHandlesEmptyTrailingLines) {
  std::ofstream f(path("trail.txt"), std::ios::binary);
  f << "0 1\n1 2\n\n\n   \n\t\n";
  f.close();
  EXPECT_EQ(load_text_edges(path("trail.txt")).size(), 2u);
}

TEST_F(IoTest, TextIgnoresExtraColumns) {
  // KONECT dumps carry weight/timestamp columns after "src dst".
  std::ofstream f(path("cols.txt"), std::ios::binary);
  f << "0 1 1.5 1234567890\r\n2 3 0.25\n";
  f.close();
  const EdgeList el = load_text_edges(path("cols.txt"));
  ASSERT_EQ(el.size(), 2u);
  EXPECT_EQ(el[0], (Edge{0, 1}));
  EXPECT_EQ(el[1], (Edge{2, 3}));
}

TEST_F(IoTest, TextRejectsMalformedLineInCrlfFile) {
  std::ofstream f(path("badcrlf.txt"), std::ios::binary);
  f << "0 1\r\nbogus line\r\n";
  f.close();
  try {
    load_text_edges(path("badcrlf.txt"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos)
        << "error should cite line 2: " << e.what();
  }
}

TEST_F(IoTest, TextRejectsNegativeAndNonNumericIds) {
  std::ofstream f(path("neg.txt"));
  f << "-1 2\n";
  f.close();
  EXPECT_THROW(load_text_edges(path("neg.txt")), std::runtime_error);
  std::ofstream g(path("alpha.txt"));
  g << "a b\n";
  g.close();
  EXPECT_THROW(load_text_edges(path("alpha.txt")), std::runtime_error);
}

TEST_F(IoTest, TextRejectsMalformedLine) {
  std::ofstream f(path("bad.txt"));
  f << "0 1\nnot_an_edge\n";
  f.close();
  try {
    load_text_edges(path("bad.txt"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":2"), std::string::npos)
        << "error should cite line 2: " << e.what();
  }
}

TEST_F(IoTest, TextRejectsReservedVertexId) {
  // 4294967295 is kInvalidVertex: as an id it would wrap the vertex count
  // to 0 and send the CSR build out of bounds.
  std::ofstream f(path("max.txt"));
  f << "0 1\n4294967295 0\n";
  f.close();
  try {
    load_text_edges(path("max.txt"));
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":2: bad vertex id"), std::string::npos) << what;
  }
  std::ofstream g(path("max_dst.txt"));
  g << "0 4294967295\n";
  g.close();
  EXPECT_THROW(load_text_edges(path("max_dst.txt")), std::runtime_error);
}

TEST_F(IoTest, TextRejectsMissingDst) {
  std::ofstream f(path("half.txt"));
  f << "42\n";
  f.close();
  EXPECT_THROW(load_text_edges(path("half.txt")), std::runtime_error);
}

TEST_F(IoTest, TextMissingFileThrows) {
  EXPECT_THROW(load_text_edges(path("nope.txt")), std::runtime_error);
}

}  // namespace
}  // namespace bpart::graph
