#include "partition/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "graph/generators.hpp"
#include "partition/registry.hpp"
#include "test_graphs.hpp"

namespace bpart::partition {
namespace {

class PartitionIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process: ctest -j runs sibling tests of this fixture in
    // parallel processes, and a shared directory makes TearDown of one
    // race the writes of another.
    dir_ = std::filesystem::temp_directory_path() /
           ("bpart_partition_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(PartitionIoTest, RoundTripFullAssignment) {
  const auto g = testing::social_graph();
  const Partition p = create("bpart")->partition(g, 8);
  save_partition(p, path("p.txt"));
  const Partition loaded = load_partition(path("p.txt"), g.num_vertices());
  ASSERT_EQ(loaded.num_vertices(), p.num_vertices());
  ASSERT_EQ(loaded.num_parts(), p.num_parts());
  for (graph::VertexId v = 0; v < p.num_vertices(); ++v)
    ASSERT_EQ(loaded[v], p[v]);
}

TEST_F(PartitionIoTest, RoundTripPreservesUnassigned) {
  Partition p(5, 3);
  p.assign(1, 2);
  p.assign(4, 0);
  save_partition(p, path("partial.txt"));
  const Partition loaded = load_partition(path("partial.txt"), 5);
  EXPECT_EQ(loaded[0], kUnassigned);
  EXPECT_EQ(loaded[1], 2u);
  EXPECT_EQ(loaded[4], 0u);
}

TEST_F(PartitionIoTest, HeaderCarriesSizes) {
  const Partition p(100, 7);  // fully unassigned
  save_partition(p, path("empty.txt"));
  const Partition loaded = load_partition(path("empty.txt"), 100);
  EXPECT_EQ(loaded.num_vertices(), 100u);
  EXPECT_EQ(loaded.num_parts(), 7u);
}

TEST_F(PartitionIoTest, RejectsMissingHeader) {
  // No header, then headers whose counts are not whole uint32 tokens: a
  // count past 2^32 - 1 must not wrap, and "-1" must not read as 2^32 - 1.
  for (const char* head :
       {"", "# bpart partition: 4294967297 vertices, 4294967298 parts\n",
        "# bpart partition: -1 vertices, 2 parts\n"}) {
    std::ofstream f(path("bad.txt"));
    f << head << "0 1\n";
    f.close();
    // Expecting 1 vertex, so a count that wrapped to 1 would load.
    EXPECT_THROW(load_partition(path("bad.txt"), 1), std::runtime_error)
        << head;
  }
}

TEST_F(PartitionIoTest, RejectsVertexCountOfAnotherGraph) {
  // The header must name the paired graph's vertex count, checked before
  // the partition is sized from it: a 50M-vertex header on a tiny file
  // would take 200 MB, and 2^32 - 1 vertices 16 GB.
  for (const char* count : {"50000000", "4294967295", "3"}) {
    std::ofstream f(path("other.txt"));
    f << "# bpart partition: " << count << " vertices, 2 parts\n0 1\n";
    f.close();
    EXPECT_THROW(load_partition(path("other.txt"), 4), std::runtime_error)
        << count;
  }
}

TEST_F(PartitionIoTest, RejectsOutOfRangeValues) {
  std::ofstream f(path("range.txt"));
  f << "# bpart partition: 4 vertices, 2 parts\n0 5\n";
  f.close();
  EXPECT_THROW(load_partition(path("range.txt"), 4), std::runtime_error);
}

TEST_F(PartitionIoTest, RejectsMalformedLineWithLineNumber) {
  std::ofstream f(path("mal.txt"));
  f << "# bpart partition: 4 vertices, 2 parts\n0 1\nbroken\n";
  f.close();
  try {
    load_partition(path("mal.txt"), 4);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":3"), std::string::npos);
  }
}

TEST_F(PartitionIoTest, ToleratesCrlfAndComments) {
  std::ofstream f(path("crlf.txt"), std::ios::binary);
  f << "# bpart partition: 3 vertices, 2 parts\r\n# note\r\n1 1\r\n";
  f.close();
  const Partition loaded = load_partition(path("crlf.txt"), 3);
  EXPECT_EQ(loaded[1], 1u);
}

TEST_F(PartitionIoTest, MissingFileThrows) {
  EXPECT_THROW(load_partition(path("nope.txt"), 0), std::runtime_error);
}

}  // namespace
}  // namespace bpart::partition
