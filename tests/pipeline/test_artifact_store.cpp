#include "pipeline/artifact_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

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

// The v2 layout, as the tests below edit it. Header: magic, version, kind,
// key, payload bytes (8+4+4+8+8), payload hash. The payload is a list of
// fields and arrays; its hash chains hash64 over them in order.
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kPayloadBytesAt = 24;
constexpr std::size_t kHashAt = 32;
constexpr std::size_t kPayloadAt = 40;

std::vector<char> read_file(const fs::path& file) {
  std::vector<char> bytes(fs::file_size(file));
  std::ifstream(file, std::ios::binary)
      .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void write_file(const fs::path& file, const std::vector<char>& bytes) {
  std::ofstream(file, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void put(std::vector<char>& bytes, std::size_t at, T v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

/// Span sizes of a graph payload: n, m, sides, then each side's offsets and
/// targets.
std::vector<std::size_t> graph_spans(std::size_t n, std::size_t m,
                                     std::size_t sides) {
  std::vector<std::size_t> spans = {8, 8, 8};
  for (std::size_t side = 0; side < sides; ++side) {
    spans.push_back((n + 1) * sizeof(graph::EdgeId));
    spans.push_back(m * sizeof(graph::VertexId));
  }
  return spans;
}

/// Re-seals the payload hash over `spans`, as the store chains it.
void reseal(std::vector<char>& bytes, const std::vector<std::size_t>& spans) {
  std::uint64_t hash = 0;
  std::size_t at = kPayloadAt;
  for (const std::size_t len : spans) {
    hash = hash64(bytes.data() + at, len, hash);
    at += len;
  }
  ASSERT_EQ(at, bytes.size()) << "spans must cover the payload";
  put(bytes, kHashAt, hash);
}

bool same_graph(const graph::Graph& a, const graph::Graph& b) {
  return std::ranges::equal(a.out_offsets(), b.out_offsets()) &&
         std::ranges::equal(a.out_targets(), b.out_targets()) &&
         std::ranges::equal(a.in_offsets(), b.in_offsets()) &&
         std::ranges::equal(a.in_targets(), b.in_targets());
}

/// A stored entry for the corruption tests to edit and reload.
struct Entry {
  std::string name;
  fs::path file;
  std::vector<char> bytes;         ///< The file as stored.
  std::vector<std::size_t> spans;  ///< Payload fields and arrays, in order.
  /// nullopt on a miss, else whether the loaded object is the stored one.
  std::function<std::optional<bool>()> load;
};

Entry stored(std::string name, fs::path file, std::vector<std::size_t> spans,
             std::function<std::optional<bool>()> load) {
  std::vector<char> bytes = read_file(file);
  return Entry{std::move(name), std::move(file), std::move(bytes),
               std::move(spans), std::move(load)};
}

/// Relabels a one-sided graph (ids reversed) and re-adopts the result
/// through Graph::from_csr, whose checks throw on a broken CSR. The loader
/// checks a one-side entry's structure, not its symmetry, so this is the
/// relabel of whatever side a forged entry holds.
void relabel_and_check(const graph::Graph& g) {
  const graph::VertexId n = g.num_vertices();
  std::vector<graph::VertexId> perm(n);
  for (graph::VertexId v = 0; v < n; ++v) perm[v] = n - 1 - v;
  const graph::Graph h = graph::apply_permutation(g, perm);
  graph::Graph::from_csr({h.out_offsets().begin(), h.out_offsets().end()},
                         {h.out_targets().begin(), h.out_targets().end()});
}

/// Stores g; the entry's load also relabels every one-sided graph it
/// accepts (relabel_and_check).
Entry graph_entry(const ArtifactStore& s, const std::string& name,
                  const graph::Graph& g, std::size_t sides) {
  const CacheKey key = CacheKey::for_spec(name);
  EXPECT_TRUE(s.store_graph(key, g));
  return stored(name, s.dir() + "/" + key.hex() + ".graph",
                graph_spans(g.num_vertices(), g.num_edges(), sides),
                [s, key, g]() -> std::optional<bool> {
                  const auto got = s.load_graph(key);
                  if (!got) return std::nullopt;
                  if (got->one_sided()) relabel_and_check(*got);
                  return same_graph(*got, g);
                });
}

Entry partition_entry(const ArtifactStore& s, const std::string& name,
                      const partition::Partition& p) {
  const CacheKey key = CacheKey::for_spec(name);
  EXPECT_TRUE(s.store_partition(key, p));
  return stored(name, s.dir() + "/" + key.hex() + ".part",
                {8, 4, p.num_vertices() * sizeof(partition::PartId)},
                [s, key, p]() -> std::optional<bool> {
                  const auto got = s.load_partition(key);
                  if (!got) return std::nullopt;
                  return got->num_parts() == p.num_parts() &&
                         std::ranges::equal(got->assignment(), p.assignment());
                });
}

Entry perm_entry(const ArtifactStore& s, const std::string& name,
                 const std::vector<graph::VertexId>& perm) {
  const CacheKey key = CacheKey::for_spec(name);
  EXPECT_TRUE(s.store_perm(key, perm));
  return stored(name, s.dir() + "/" + key.hex() + ".perm",
                {8, perm.size() * sizeof(graph::VertexId)},
                [s, key, perm]() -> std::optional<bool> {
                  const auto got = s.load_perm(key);
                  if (!got) return std::nullopt;
                  return *got == perm;
                });
}

/// Writes `bytes` over the entry's file and expects a miss that removed
/// the file, with no exception.
void expect_rejected(const Entry& e, const std::vector<char>& bytes,
                     const std::string& what) {
  write_file(e.file, bytes);
  std::optional<bool> got = true;
  EXPECT_NO_THROW(got = e.load()) << e.name << ", " << what;
  EXPECT_FALSE(got.has_value()) << e.name << ", " << what;
  EXPECT_FALSE(fs::exists(e.file)) << e.name << ", " << what;
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
  std::vector<char> bytes = read_file(file);

  // A directed graph stores both sides.
  const auto spans = graph_spans(g.num_vertices(), g.num_edges(), 2);
  const auto reseal_and_write = [&] {
    reseal(bytes, spans);
    write_file(file, bytes);
  };
  reseal_and_write();
  ASSERT_TRUE(s.load_graph(key).has_value()) << "re-sealing alone is valid";

  graph::VertexId v = 0;
  while (v < g.num_vertices() &&
         (g.out_degree(v) < 2 ||
          g.out_neighbor(v, 0) == g.out_neighbor(v, g.out_degree(v) - 1)))
    ++v;
  ASSERT_LT(v, g.num_vertices());
  const std::size_t targets_at = kPayloadAt + 3 * sizeof(std::uint64_t) +
                                 (g.num_vertices() + 1) * sizeof(graph::EdgeId);
  const auto first = static_cast<std::ptrdiff_t>(
      targets_at + g.out_offsets()[v] * sizeof(graph::VertexId));
  const auto last = static_cast<std::ptrdiff_t>(
      targets_at + (g.out_offsets()[v + 1] - 1) * sizeof(graph::VertexId));
  std::swap_ranges(bytes.begin() + first,
                   bytes.begin() + first + sizeof(graph::VertexId),
                   bytes.begin() + last);
  reseal_and_write();
  EXPECT_FALSE(s.load_graph(key).has_value());
  EXPECT_FALSE(fs::exists(file)) << "invalid entry must be removed";
}

TEST_F(ArtifactStoreTest, SymmetricGraphStoresOneSide) {
  graph::RmatConfig cfg;
  cfg.scale = 9;
  cfg.edge_factor = 8;
  const graph::Graph sym = graph::Graph::from_edges_symmetric(graph::rmat(cfg));
  const std::size_t n = sym.num_vertices();
  const std::size_t m = sym.num_edges();
  const ArtifactStore s = store();
  const Entry e = graph_entry(s, "sym", sym, 1);
  EXPECT_EQ(e.bytes.size(), kPayloadAt + 24 +
                                (n + 1) * sizeof(graph::EdgeId) +
                                m * sizeof(graph::VertexId));
  EXPECT_EQ(e.load(), std::optional<bool>(true))
      << "all four arrays round-trip";
  // It loads one-sided: the in-side is the out-side's storage.
  const auto loaded = s.load_graph(CacheKey::for_spec("sym"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->one_sided());
  EXPECT_EQ(loaded->in_offsets().data(), loaded->out_offsets().data());
  EXPECT_EQ(loaded->in_targets().data(), loaded->out_targets().data());

  // Claiming a second side the file does not hold is a layout mismatch,
  // even under a valid checksum.
  std::vector<char> bytes = e.bytes;
  put<std::uint64_t>(bytes, kPayloadAt + 16, 2);
  reseal(bytes, e.spans);
  expect_rejected(e, bytes, "sides edited to 2");

  // A directed graph still stores both sides.
  const graph::Graph directed = sample_graph();
  const Entry d = graph_entry(s, "directed", directed, 2);
  EXPECT_EQ(d.bytes.size(),
            kPayloadAt + 24 +
                2 * ((directed.num_vertices() + 1) * sizeof(graph::EdgeId) +
                     directed.num_edges() * sizeof(graph::VertexId)));
  EXPECT_EQ(d.load(), std::optional<bool>(true));
  const auto two = s.load_graph(CacheKey::for_spec("directed"));
  ASSERT_TRUE(two.has_value());
  EXPECT_FALSE(two->one_sided());
  EXPECT_NE(two->in_targets().data(), two->out_targets().data());
}

TEST_F(ArtifactStoreTest, V1EntryIsAMissAndIsRemoved) {
  // Entries the previous format wrote, found at a current path: a miss,
  // removed, never an error. Everything but the version word is valid.
  const ArtifactStore s = store();
  const std::vector<Entry> entries = {
      graph_entry(s, "v1-graph", sample_graph(), 2),
      partition_entry(s, "v1-part", partition::Partition({0, 1, 0}, 2)),
      perm_entry(s, "v1-perm", {2, 0, 1})};
  for (const Entry& e : entries) {
    std::vector<char> bytes = e.bytes;
    put<std::uint32_t>(bytes, kVersionAt, 1);
    expect_rejected(e, bytes, "version 1");
  }
}

TEST_F(ArtifactStoreTest, OversizedHeaderIsRejectedAndRemoved) {
  // Size fields are checked against the file before anything is allocated
  // from them. A forged payload size, a forged n, m or sides under a valid
  // checksum, or a payload size forged together with counts that fill it
  // exactly, must be a miss: never std::bad_alloc, std::length_error or a
  // zero fill of that many bytes. No size here could be allocated.
  const ArtifactStore s = store();
  const std::vector<Entry> entries = {
      graph_entry(s, "graph", sample_graph(), 2),
      partition_entry(s, "partition", partition::Partition({0, 1, 0, 1}, 2)),
      perm_entry(s, "perm", {3, 0, 2, 1})};
  // Per entry, a 2^50-byte payload and counts that fill it: two graph
  // sides of 2^48 offset bytes and 2^48 target bytes each, or 2^48
  // assignment entries or ids. Each pair is {file offset, value}.
  const std::uint64_t big = std::uint64_t{1} << 50;
  const std::vector<std::vector<std::pair<std::size_t, std::uint64_t>>>
      filled = {{{kPayloadBytesAt, 24 + big},
                 {kPayloadAt, (big >> 5) - 1},
                 {kPayloadAt + 8, big >> 4}},
                {{kPayloadBytesAt, 12 + big}, {kPayloadAt, big >> 2}},
                {{kPayloadBytesAt, 8 + big}, {kPayloadAt, big >> 2}}};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const std::uint64_t payload = e.bytes.size() - kPayloadAt;
    for (const std::uint64_t size :
         {std::uint64_t{1} << 63, big, payload + 1, payload - 1}) {
      std::vector<char> bytes = e.bytes;
      put(bytes, kPayloadBytesAt, size);
      expect_rejected(e, bytes, "payload size " + std::to_string(size));
    }
    // The leading 8-byte fields: n, and a graph's m and sides.
    for (std::size_t f = 0; f < e.spans.size() && e.spans[f] == 8; ++f) {
      for (const std::uint64_t count :
           {std::uint64_t{1} << 63, big, ~std::uint64_t{0}}) {
        std::vector<char> bytes = e.bytes;
        put(bytes, kPayloadAt + 8 * f, count);
        reseal(bytes, e.spans);
        expect_rejected(e, bytes,
                        "field " + std::to_string(f) + " = " +
                            std::to_string(count));
      }
    }
    std::vector<char> bytes = e.bytes;
    for (const auto& [at, value] : filled[i]) put(bytes, at, value);
    expect_rejected(e, bytes, "payload size and counts forged together");
    write_file(e.file, e.bytes);
    EXPECT_EQ(e.load(), std::optional<bool>(true)) << e.name;
  }
}

/// Silences the store's rejection warnings for one scope.
class QuietLog {
 public:
  QuietLog() : before_(log::level()) { log::set_level(log::Level::kError); }
  ~QuietLog() { log::set_level(before_); }
  QuietLog(const QuietLog&) = delete;
  QuietLog& operator=(const QuietLog&) = delete;

 private:
  log::Level before_;
};

TEST_F(ArtifactStoreTest, MutationSweepRejectsOrRoundTrips) {
  // Seeded mutations of small valid entries of every kind and both graph
  // layouts: each header byte flipped three ways, 256 random payload byte
  // flips, and truncation at every field boundary and one byte either
  // side. Each outcome is a miss that removed the file or an object
  // bit-identical to the original; nothing throws. A last pass re-seals 64
  // random flips, so the structural checks behind the checksum see them:
  // a load may then yield another valid object, but never throws, and a
  // rejection still removes the file. Every one-sided graph a load accepts
  // is also relabeled (graph_entry), so a re-sealed side that is no longer
  // symmetric must still relabel into a valid CSR.
  const QuietLog quiet;
  const ArtifactStore s = store();
  graph::RmatConfig cfg;
  cfg.scale = 5;
  cfg.edge_factor = 4;
  std::vector<partition::PartId> assign(40);
  std::vector<graph::VertexId> perm(40);
  for (graph::VertexId v = 0; v < 40; ++v) {
    assign[v] = v % 3;
    perm[v] = (v * 7) % 40;
  }
  const std::vector<Entry> entries = {
      graph_entry(s, "directed", graph::Graph::from_edges(graph::rmat(cfg)),
                  2),
      graph_entry(s, "symmetric",
                  graph::Graph::from_edges_symmetric(graph::rmat(cfg)), 1),
      partition_entry(s, "partition", partition::Partition(assign, 4)),
      perm_entry(s, "perm", perm)};

  Xoshiro256 rng(0x5eed);
  for (const Entry& e : entries) {
    ASSERT_EQ(e.load(), std::optional<bool>(true)) << e.name;
    int trials = 0;
    int failures = 0;
    std::string first_failure;
    // `strict`: a load must return the stored object, else any valid one.
    const auto trial = [&](const std::vector<char>& bytes,
                           const std::string& what, bool strict) {
      ++trials;
      write_file(e.file, bytes);
      std::string failure;
      try {
        const std::optional<bool> got = e.load();
        if (!got && fs::exists(e.file)) failure = "miss left the file";
        if (got && strict && !*got) failure = "loaded another object";
      } catch (const std::exception& ex) {
        failure = std::string("threw ") + ex.what();
      }
      if (!failure.empty() && failures++ == 0)
        first_failure = what + ": " + failure;
    };

    for (std::size_t at = 0; at < kPayloadAt; ++at) {
      for (const int mask : {0x01, 0x80, 0xff}) {
        std::vector<char> bytes = e.bytes;
        bytes[at] = static_cast<char>(bytes[at] ^ mask);
        trial(bytes, "header byte " + std::to_string(at), true);
      }
    }
    const std::size_t payload = e.bytes.size() - kPayloadAt;
    const auto flip_payload_byte = [&](std::vector<char>& bytes) {
      const std::size_t at = kPayloadAt + rng.bounded(payload);
      bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.bounded(255)));
      return "payload byte " + std::to_string(at);
    };
    for (int i = 0; i < 256; ++i) {
      std::vector<char> bytes = e.bytes;
      const std::string what = flip_payload_byte(bytes);
      trial(bytes, what, true);
    }
    std::vector<std::size_t> bounds = {0, 8, 12, 16, 24, 32, kPayloadAt};
    for (const std::size_t len : e.spans) bounds.push_back(bounds.back() + len);
    for (const std::size_t b : bounds) {
      for (const std::size_t len : {b - 1, b, b + 1}) {
        if (len >= e.bytes.size()) continue;  // b - 1 wraps at b == 0
        const auto end = e.bytes.begin() + static_cast<std::ptrdiff_t>(len);
        trial(std::vector<char>(e.bytes.begin(), end),
              "truncated to " + std::to_string(len), true);
      }
    }
    for (int i = 0; i < 64; ++i) {
      std::vector<char> bytes = e.bytes;
      const std::string what = "resealed " + flip_payload_byte(bytes);
      reseal(bytes, e.spans);
      trial(bytes, what, false);
    }
    EXPECT_EQ(failures, 0) << e.name << ": " << failures << " of " << trials
                           << " trials failed; first: " << first_failure;
  }
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
