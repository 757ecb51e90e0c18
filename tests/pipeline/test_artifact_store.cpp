#include "pipeline/artifact_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "graph/generators.hpp"

namespace bpart::pipeline {
namespace {

namespace fs = std::filesystem;

class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("bpart_artifact_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] ArtifactStore store() const {
    return ArtifactStore(dir_.string());
  }

  [[nodiscard]] graph::Graph sample_graph() const {
    graph::RmatConfig cfg;
    cfg.scale = 9;
    cfg.edge_factor = 8;
    return graph::Graph::from_edges(graph::rmat(cfg));
  }

  /// Path of the single artifact file in the store (fails if not exactly 1).
  [[nodiscard]] fs::path only_artifact() const {
    fs::path found;
    int count = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      found = entry.path();
      ++count;
    }
    EXPECT_EQ(count, 1);
    return found;
  }

  fs::path dir_;
};

void expect_same_graph(const graph::Graph& a, const graph::Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::ranges::equal(a.out_offsets(), b.out_offsets()));
  EXPECT_TRUE(std::ranges::equal(a.out_targets(), b.out_targets()));
  EXPECT_TRUE(std::ranges::equal(a.in_offsets(), b.in_offsets()));
  EXPECT_TRUE(std::ranges::equal(a.in_targets(), b.in_targets()));
}

TEST_F(ArtifactStoreTest, GraphRoundTripIsBitIdentical) {
  const graph::Graph g = sample_graph();
  const CacheKey key = CacheKey::for_spec("rmat:scale=9:ef=8");
  const ArtifactStore s = store();
  EXPECT_FALSE(s.load_graph(key).has_value());
  ASSERT_TRUE(s.store_graph(key, g));
  ASSERT_TRUE(s.has_graph(key));
  const auto loaded = s.load_graph(key);
  ASSERT_TRUE(loaded.has_value());
  expect_same_graph(*loaded, g);
}

TEST_F(ArtifactStoreTest, PartitionRoundTripIsBitIdentical) {
  std::vector<partition::PartId> assign = {0, 1, 2, 1, 0, partition::kUnassigned, 2};
  const partition::Partition p(assign, 3);
  const CacheKey key = CacheKey::for_spec("toy").derive(":algo=bpart:k=3");
  const ArtifactStore s = store();
  ASSERT_TRUE(s.store_partition(key, p));
  const auto loaded = s.load_partition(key);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->num_vertices(), p.num_vertices());
  EXPECT_EQ(loaded->num_parts(), p.num_parts());
  EXPECT_TRUE(std::ranges::equal(loaded->assignment(), p.assignment()));
}

TEST_F(ArtifactStoreTest, TruncatedEntryIsRejectedAndRemoved) {
  const CacheKey key = CacheKey::for_spec("trunc");
  const ArtifactStore s = store();
  ASSERT_TRUE(s.store_graph(key, sample_graph()));
  const fs::path file = only_artifact();
  fs::resize_file(file, fs::file_size(file) / 2);
  EXPECT_FALSE(s.load_graph(key).has_value());
  EXPECT_FALSE(fs::exists(file)) << "corrupt entry must be removed";
  // A rebuild (re-store) makes it loadable again.
  ASSERT_TRUE(s.store_graph(key, sample_graph()));
  EXPECT_TRUE(s.load_graph(key).has_value());
}

TEST_F(ArtifactStoreTest, BitFlippedPayloadFailsChecksum) {
  const CacheKey key = CacheKey::for_spec("flip");
  const ArtifactStore s = store();
  ASSERT_TRUE(s.store_graph(key, sample_graph()));
  const fs::path file = only_artifact();
  // Flip one byte in the middle of the payload.
  std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  f.seekp(size / 2);
  char c = 0;
  f.seekg(size / 2);
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(size / 2);
  f.write(&c, 1);
  f.close();
  EXPECT_FALSE(s.load_graph(key).has_value());
}

/// FNV-1a over `bytes`, as the store seals every payload.
std::uint64_t fnv1a(std::span<const char> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST_F(ArtifactStoreTest, UnsortedRunIsRejectedAndRemoved) {
  // An entry whose checksum holds but whose CSR breaks an invariant the
  // readers rely on: two targets of one out-run swapped, the payload hash
  // re-sealed over the edit.
  const CacheKey key = CacheKey::for_spec("unsorted");
  const ArtifactStore s = store();
  const graph::Graph g = sample_graph();
  ASSERT_TRUE(s.store_graph(key, g));
  const fs::path file = only_artifact();
  std::vector<char> bytes(fs::file_size(file));
  std::ifstream(file, std::ios::binary)
      .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  // Header: magic, version, kind, key, payload bytes (8+4+4+8+8), payload
  // hash. Payload: n, m, out-offsets, out-targets, in-offsets, in-targets.
  constexpr std::size_t kHashAt = 32;
  constexpr std::size_t kPayloadAt = 40;
  const auto reseal_and_write = [&] {
    const std::uint64_t hash =
        fnv1a(std::span<const char>(bytes).subspan(kPayloadAt));
    std::memcpy(bytes.data() + kHashAt, &hash, sizeof(hash));
    std::ofstream(file, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  reseal_and_write();
  ASSERT_TRUE(s.load_graph(key).has_value()) << "re-sealing alone is valid";

  graph::VertexId v = 0;
  while (v < g.num_vertices() &&
         (g.out_degree(v) < 2 ||
          g.out_neighbor(v, 0) == g.out_neighbor(v, g.out_degree(v) - 1)))
    ++v;
  ASSERT_LT(v, g.num_vertices());
  const std::size_t targets_at = kPayloadAt + 2 * sizeof(std::uint64_t) +
                                 (g.num_vertices() + 1) * sizeof(graph::EdgeId);
  const auto first = static_cast<std::ptrdiff_t>(
      targets_at + g.out_edge_index(v, 0) * sizeof(graph::VertexId));
  const auto last = static_cast<std::ptrdiff_t>(
      targets_at +
      g.out_edge_index(v, g.out_degree(v) - 1) * sizeof(graph::VertexId));
  std::swap_ranges(bytes.begin() + first,
                   bytes.begin() + first + sizeof(graph::VertexId),
                   bytes.begin() + last);
  reseal_and_write();
  EXPECT_FALSE(s.load_graph(key).has_value());
  EXPECT_FALSE(fs::exists(file)) << "invalid entry must be removed";
}

TEST_F(ArtifactStoreTest, GarbageFileIsRejected) {
  const CacheKey key = CacheKey::for_spec("garbage");
  const ArtifactStore s = store();
  fs::create_directories(dir_);
  std::ofstream f(dir_ / (key.hex() + ".graph"), std::ios::binary);
  f << "this is not an artifact, padded well beyond the header size.......";
  f.close();
  EXPECT_FALSE(s.load_graph(key).has_value());
}

TEST_F(ArtifactStoreTest, ConfigChangeProducesDifferentKey) {
  const CacheKey base = CacheKey::for_spec("dataset:livejournal:scale=1");
  const CacheKey k8 = base.derive(":algo=bpart:k=8");
  const CacheKey k16 = base.derive(":algo=bpart:k=16");
  const CacheKey fennel8 = base.derive(":algo=fennel:k=8");
  EXPECT_NE(k8.hash(), k16.hash());
  EXPECT_NE(k8.hash(), fennel8.hash());
  EXPECT_NE(k16.hash(), fennel8.hash());
  EXPECT_NE(base.hash(), k8.hash());

  // Entries stored under one key are invisible under another.
  const ArtifactStore s = store();
  const partition::Partition p(std::vector<partition::PartId>{0, 1, 0}, 2);
  ASSERT_TRUE(s.store_partition(k8, p));
  EXPECT_TRUE(s.load_partition(k8).has_value());
  EXPECT_FALSE(s.load_partition(k16).has_value());
  EXPECT_FALSE(s.load_partition(fennel8).has_value());
}

TEST_F(ArtifactStoreTest, FileKeyTracksContentNotTimestamps) {
  fs::create_directories(dir_);
  const std::string input = (dir_ / "in.txt").string();
  std::ofstream(input) << "0 1\n";
  const CacheKey k1 = CacheKey::for_file(input, "tag");
  // Rewrite identical content: same key.
  std::ofstream(input) << "0 1\n";
  EXPECT_EQ(CacheKey::for_file(input, "tag").hash(), k1.hash());
  // Different content: different key.
  std::ofstream(input) << "0 2\n";
  EXPECT_NE(CacheKey::for_file(input, "tag").hash(), k1.hash());
  // Different tag (e.g. parser version bump): different key.
  std::ofstream(input) << "0 1\n";
  EXPECT_NE(CacheKey::for_file(input, "tag2").hash(), k1.hash());
}

TEST_F(ArtifactStoreTest, WrongKindIsRejected) {
  const CacheKey key = CacheKey::for_spec("kind");
  const ArtifactStore s = store();
  ASSERT_TRUE(s.store_graph(key, sample_graph()));
  // Rename the .graph artifact to .part: kind field no longer matches.
  const fs::path file = only_artifact();
  fs::rename(file, dir_ / (key.hex() + ".part"));
  EXPECT_FALSE(s.load_partition(key).has_value());
}

TEST_F(ArtifactStoreTest, PermRoundTripIsBitIdentical) {
  const std::vector<graph::VertexId> perm = {3, 0, 4, 1, 2};
  const CacheKey key = CacheKey::for_spec("base").derive(":ro=degree");
  const ArtifactStore s = store();
  EXPECT_FALSE(s.load_perm(key).has_value());
  EXPECT_FALSE(s.has_perm(key));
  ASSERT_TRUE(s.store_perm(key, perm));
  ASSERT_TRUE(s.has_perm(key));
  const auto loaded = s.load_perm(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, perm);
  // Empty permutations round-trip too (identity marker).
  const CacheKey empty_key = CacheKey::for_spec("base").derive(":ro=none");
  ASSERT_TRUE(s.store_perm(empty_key, {}));
  const auto empty = s.load_perm(empty_key);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST_F(ArtifactStoreTest, TruncatedPermIsRejectedAndRemoved) {
  const CacheKey key = CacheKey::for_spec("permtrunc");
  const ArtifactStore s = store();
  std::vector<graph::VertexId> perm(256);
  for (graph::VertexId v = 0; v < perm.size(); ++v)
    perm[v] = static_cast<graph::VertexId>(perm.size() - 1 - v);
  ASSERT_TRUE(s.store_perm(key, perm));
  const fs::path file = only_artifact();
  fs::resize_file(file, fs::file_size(file) / 2);
  EXPECT_FALSE(s.load_perm(key).has_value());
  EXPECT_FALSE(fs::exists(file)) << "corrupt perm must be removed";
}

TEST_F(ArtifactStoreTest, PurgeRemovesEverything) {
  const ArtifactStore s = store();
  ASSERT_TRUE(s.store_graph(CacheKey::for_spec("a"), sample_graph()));
  ASSERT_TRUE(s.store_partition(
      CacheKey::for_spec("b"),
      partition::Partition(std::vector<partition::PartId>{0}, 1)));
  ASSERT_TRUE(s.store_perm(CacheKey::for_spec("c"), {1, 0}));
  EXPECT_EQ(s.purge(), 3u);
  EXPECT_FALSE(s.load_graph(CacheKey::for_spec("a")).has_value());
  EXPECT_FALSE(s.load_perm(CacheKey::for_spec("c")).has_value());
}

}  // namespace
}  // namespace bpart::pipeline
