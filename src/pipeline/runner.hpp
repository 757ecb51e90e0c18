// Streaming pipeline driver: parallel ingest -> degree counting -> CSR ->
// streaming partitioner, with both expensive products (CSR graph, Partition)
// cached in the artifact store.
//
// The runner is the front door benches/examples use instead of the
// load_text_edges + registry::create two-step: a warm run skips parse and
// partition entirely and reports cache-hit timings instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/reorder.hpp"
#include "partition/partition.hpp"
#include "pipeline/artifact_store.hpp"
#include "pipeline/ingest.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace bpart::pipeline {

struct PipelineConfig {
  IngestConfig ingest;

  /// Build the symmetrized CSR (self-loops removed, both directions) — the
  /// paper's setting for the social-graph datasets. Off = directed CSR.
  bool symmetrize = false;

  /// Vertex relabeling applied between ingest and partitioning; none by
  /// default. The runner hands out the *reordered* CSR (and caches it,
  /// with its permutation, as first-class artifacts); engines,
  /// partitioners and the dist layer stay oblivious — per-vertex results
  /// are mapped back to input ids at the API boundary with unpermute().
  ReorderMode reorder = ReorderMode::kNone;

  /// Shuffle seed of ReorderMode::kRandom (part of the cache key).
  std::uint64_t reorder_seed = 17;

  /// Consult/populate the artifact store. ANDed with
  /// ArtifactStore::enabled() so $BPART_CACHE=0 still wins.
  bool use_cache = true;

  /// Artifact directory; empty means ArtifactStore::default_dir().
  std::string cache_dir;
};

/// Per-stage accounting of the most recent runner call.
struct PipelineReport {
  IngestReport ingest;            ///< Parse stage (zeroed on cache hit).
  double build_seconds = 0;       ///< EdgeList -> CSR.
  double reorder_seconds = 0;     ///< Order computation + relabel (0 on hit).
  double partition_seconds = 0;   ///< Partitioner wall-clock (0 on hit).
  double cache_seconds = 0;       ///< Key hashing + artifact load/store.
  bool graph_cache_hit = false;
  bool reorder_cache_hit = false;
  bool partition_cache_hit = false;
  graph::VertexId vertices = 0;
  graph::EdgeId edges = 0;
  /// Dispersion of the parsed edge list's out-degrees (bias/fairness per
  /// util/stats); zeroed on graph cache hit.
  stats::Summary degree_summary;
};

class PipelineRunner {
 public:
  explicit PipelineRunner(PipelineConfig cfg = {});

  /// Text edge list -> CSR through the parallel ingest path, artifact
  /// cache consulted first. Throws like ingest_text_edges on bad input.
  graph::Graph load_graph(const std::string& path);

  /// Partition a graph under an explicit base key (file inputs get it from
  /// graph_key(); generated datasets hash their spec via CacheKey::for_spec).
  partition::Partition partition_graph(const graph::Graph& g,
                                       const CacheKey& graph_key,
                                       const std::string& algo,
                                       partition::PartId k);

  struct Result {
    graph::Graph graph;
    partition::Partition partition;
    /// perm[input id] = internal id of the relabeled CSR; empty = identity
    /// (ReorderMode::kNone). Feed to unpermute()/to_internal().
    std::vector<graph::VertexId> perm;
  };
  /// End-to-end: load (or cache-hit) the graph, then partition (or
  /// cache-hit) with the registry partitioner `algo`.
  Result run_file(const std::string& path, const std::string& algo,
                  partition::PartId k);

  /// Content-hash cache key of a text input under this config — the key of
  /// the graph load_graph returns, i.e. the *reordered* graph when a
  /// reorder mode is active, so derived partition keys separate per order.
  [[nodiscard]] CacheKey graph_key(const std::string& path) const;

  /// Permutation of the most recent load_graph (empty = identity).
  [[nodiscard]] const std::vector<graph::VertexId>& permutation() const {
    return perm_;
  }

  /// API-boundary inverse relabel: vals is indexed by internal (reordered)
  /// id, the result by input id — out[v] = vals[perm[v]]. Identity when
  /// perm is empty. This is how callers publish engine results computed on
  /// a reordered graph without the engines knowing about the relabel.
  template <typename T>
  static std::vector<T> unpermute(const std::vector<T>& vals,
                                  const std::vector<graph::VertexId>& perm) {
    if (perm.empty()) return vals;
    std::vector<T> out(vals.size());
    for (graph::VertexId v = 0; v < perm.size(); ++v) out[v] = vals[perm[v]];
    return out;
  }

  /// Map an input-id vertex (an SSSP source, a walk seed) into the
  /// reordered id space the engines run in.
  static graph::VertexId to_internal(
      graph::VertexId v, const std::vector<graph::VertexId>& perm) {
    return perm.empty() ? v : perm[v];
  }

  [[nodiscard]] const PipelineReport& report() const { return report_; }
  [[nodiscard]] const PipelineConfig& config() const { return cfg_; }
  [[nodiscard]] const ArtifactStore& store() const { return store_; }
  [[nodiscard]] bool cache_active() const { return cache_on_; }

 private:
  /// Key of the un-reordered ingest product (reorder mode not folded in).
  /// Hashes the whole file, so each public entry point computes it once.
  [[nodiscard]] CacheKey base_graph_key(const std::string& path) const;
  /// graph_key() derived from an already computed base key.
  [[nodiscard]] CacheKey reordered_key(const CacheKey& base) const;
  /// load_graph() under the precomputed base key of `path`; `cache_timer`
  /// started before that key was hashed, so the hashing counts as cache time.
  graph::Graph load_graph(const std::string& path, const CacheKey& base,
                          Timer cache_timer);
  /// Reorder stage: relabel `g` per cfg_.reorder, populating the graph+perm
  /// artifacts under `rkey`; fills perm_ and the reorder report fields.
  /// Identity mode returns `g` untouched.
  graph::Graph reorder_stage(graph::Graph g, const CacheKey& rkey);

  PipelineConfig cfg_;
  ArtifactStore store_;
  bool cache_on_;
  PipelineReport report_;
  std::vector<graph::VertexId> perm_;
};

}  // namespace bpart::pipeline
