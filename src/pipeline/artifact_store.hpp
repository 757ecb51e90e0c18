// Versioned on-disk cache of partitioning artifacts.
//
// Repeated bench/example runs were re-generating (or re-parsing) the graph
// and re-running the partitioner from scratch every time. The store caches
// the two expensive products — the binary CSR and the Partition assignment
// — keyed by a content hash of everything that determines them: the input
// (file bytes or generator spec), the partitioner name, its configuration,
// and a format version. Every artifact carries a payload checksum; a
// truncated, bit-flipped, oversized or version-skewed entry is rejected
// loudly (LOG_WARN + file removed) and the caller rebuilds it.
//
// Layout: <dir>/<key-hex>.graph, <dir>/<key-hex>.part and (for the
// pipeline's reorder stage) <dir>/<key-hex>.perm, written atomically
// (tmp file + rename) so a crashed writer cannot leave a half-written
// entry that passes the checksum. Format version 2 (DESIGN.md §6): arrays
// are written from and read into their final vectors with no staging copy,
// and a graph whose in-side equals its out-side stores one side.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr.hpp"
#include "partition/partition.hpp"

namespace bpart::pipeline {

/// Cache key: a 64-bit content hash (hash64, util/hash.hpp) plus the
/// human-readable description it was derived from (kept for log messages).
class CacheKey {
 public:
  /// Key for a file input: hashes the file's *bytes* (so touching mtime
  /// does not invalidate, editing content does) mixed with `tag`.
  /// Throws std::runtime_error if the file cannot be read.
  static CacheKey for_file(const std::string& path, std::string_view tag);

  /// Key for a generated input: hashes the spec string itself. The caller
  /// must fold every generator knob into `spec`.
  static CacheKey for_spec(std::string_view spec);

  /// Derive a sub-key, e.g. base key of a graph + ":algo=bpart:k=8".
  [[nodiscard]] CacheKey derive(std::string_view suffix) const;

  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::string hex() const;
  [[nodiscard]] const std::string& description() const { return desc_; }

 private:
  CacheKey(std::uint64_t hash, std::string desc)
      : hash_(hash), desc_(std::move(desc)) {}

  std::uint64_t hash_;
  std::string desc_;
};

/// Content revision of an in-memory graph: hash64 over the vertex/edge
/// counts, the out-offsets and the out-targets. Two graphs share a revision
/// iff their adjacency structure is identical, so folding this into a
/// partition cache key pins the cached assignment to the graph actually
/// partitioned — a graph passed under another graph's key can never hit
/// the partition computed for that key. O(V + E) word scan, which is noise
/// next to any partitioner run it guards.
std::uint64_t graph_revision(const graph::Graph& g);

class ArtifactStore {
 public:
  /// `dir` empty means default_dir(). The directory is created lazily on
  /// first store.
  explicit ArtifactStore(std::string dir = {});

  /// $BPART_CACHE_DIR, else ".bpart-cache".
  static std::string default_dir();

  /// False when $BPART_CACHE is "0" / "false" / "off" — callers use this to
  /// bypass the cache wholesale.
  static bool enabled();

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// nullopt on miss, corruption (checksum/magic/version/key/size mismatch
  /// — warned and removed), or structural validation failure. Size fields
  /// are checked against the file before anything is allocated from them.
  [[nodiscard]] std::optional<graph::Graph> load_graph(
      const CacheKey& key) const;
  [[nodiscard]] std::optional<partition::Partition> load_partition(
      const CacheKey& key) const;
  /// Vertex permutation (the pipeline's reorder artifact): validated as a
  /// permutation of [0, n) on load.
  [[nodiscard]] std::optional<std::vector<graph::VertexId>> load_perm(
      const CacheKey& key) const;

  /// Returns false (after LOG_WARN) on IO failure; the cache is an
  /// optimization, so callers treat a failed store as a non-event.
  bool store_graph(const CacheKey& key, const graph::Graph& g) const;
  bool store_partition(const CacheKey& key,
                       const partition::Partition& p) const;
  bool store_perm(const CacheKey& key,
                  const std::vector<graph::VertexId>& perm) const;

  [[nodiscard]] bool has_graph(const CacheKey& key) const;
  [[nodiscard]] bool has_partition(const CacheKey& key) const;
  [[nodiscard]] bool has_perm(const CacheKey& key) const;

  /// Delete every artifact in the store. Returns the number removed.
  std::size_t purge() const;

 private:
  std::string dir_;
};

}  // namespace bpart::pipeline
