#include "pipeline/runner.hpp"

#include <cstdio>
#include <utility>

#include "graph/reorder.hpp"
#include "obs/trace.hpp"
#include "partition/registry.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace bpart::pipeline {

namespace {

/// Bumped whenever the serialized meaning of a cached graph changes
/// (parser semantics, symmetrization, CSR layout).
constexpr const char* kGraphKeyVersion = "gv1";

/// Bumped whenever any registry partitioner's default configuration
/// changes, so stale assignments never masquerade as current ones.
/// pv2: the key gained the graph-content revision (see graph_revision) so
/// a graph that differs from the one `graph_key` names can never hit a
/// partition cached for that key.
constexpr const char* kPartitionKeyVersion = "pv2";

std::string revision_hex(const graph::Graph& g) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(graph_revision(g)));
  return buf;
}

/// Cache-key suffix pinning the reorder stage. The seed only matters for
/// the random shuffle, so it is folded in only there — degree/bfs keys stay
/// stable across $BPART_SEED.
std::string reorder_suffix(const PipelineConfig& cfg) {
  std::string s = std::string(":ro=") + reorder_mode_name(cfg.reorder);
  if (cfg.reorder == ReorderMode::kRandom)
    s += ":roseed=" + std::to_string(cfg.reorder_seed);
  return s;
}

}  // namespace

PipelineRunner::PipelineRunner(PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      store_(cfg_.cache_dir),
      cache_on_(cfg_.use_cache && ArtifactStore::enabled()) {}

CacheKey PipelineRunner::base_graph_key(const std::string& path) const {
  return CacheKey::for_file(
      path, std::string(kGraphKeyVersion) +
                (cfg_.symmetrize ? ":sym=1" : ":sym=0"));
}

CacheKey PipelineRunner::reordered_key(const CacheKey& base) const {
  // Identity mode keeps the historical key so existing caches stay warm.
  if (cfg_.reorder == ReorderMode::kNone) return base;
  return base.derive(reorder_suffix(cfg_));
}

CacheKey PipelineRunner::graph_key(const std::string& path) const {
  return reordered_key(base_graph_key(path));
}

graph::Graph PipelineRunner::load_graph(const std::string& path) {
  const Timer cache_timer;
  return load_graph(path, base_graph_key(path), cache_timer);
}

graph::Graph PipelineRunner::load_graph(const std::string& path,
                                        const CacheKey& base,
                                        Timer cache_timer) {
  BPART_SPAN("ingest/load_graph");
  report_ = PipelineReport{};
  perm_.clear();
  const CacheKey rkey = reordered_key(base);
  if (cache_on_ && cfg_.reorder != ReorderMode::kNone) {
    // Warmest path: the reordered CSR and its permutation are both cached
    // under the ro-suffixed key — skip parse, build and relabel entirely.
    auto cached = store_.load_graph(rkey);
    auto cperm = store_.load_perm(rkey);
    if (cached && cperm && cperm->size() == cached->num_vertices()) {
      report_.cache_seconds = cache_timer.seconds();
      report_.graph_cache_hit = true;
      report_.reorder_cache_hit = true;
      report_.vertices = cached->num_vertices();
      report_.edges = cached->num_edges();
      perm_ = std::move(*cperm);
      LOG_INFO << "[pipeline] reordered-graph cache hit for " << path << " ("
               << reorder_mode_name(cfg_.reorder) << ", " << report_.vertices
               << " vertices, " << report_.edges << " edges, "
               << report_.cache_seconds << "s)";
      return std::move(*cached);
    }
  }
  if (cache_on_) {
    // Only a kNone run writes the base entry, but any run can reorder it.
    if (auto cached = store_.load_graph(base)) {
      report_.cache_seconds = cache_timer.seconds();
      report_.graph_cache_hit = true;
      report_.vertices = cached->num_vertices();
      report_.edges = cached->num_edges();
      LOG_INFO << "[pipeline] graph cache hit for " << path << " ("
               << report_.vertices << " vertices, " << report_.edges
               << " edges, " << report_.cache_seconds << "s)";
      return reorder_stage(std::move(*cached), rkey);
    }
  }
  report_.cache_seconds = cache_timer.seconds();

  graph::EdgeList edges = ingest_text_edges(path, cfg_.ingest, &report_.ingest);
  report_.degree_summary =
      stats::summarize(stats::to_doubles(edges.out_degrees()));

  Timer build_timer;
  graph::Graph g =
      cfg_.symmetrize
          ? graph::Graph::from_edges_symmetric(std::move(edges),
                                               cfg_.ingest.threads)
          : graph::Graph::from_edges(edges, cfg_.ingest.threads);
  report_.build_seconds = build_timer.seconds();
  report_.vertices = g.num_vertices();
  report_.edges = g.num_edges();
  LOG_INFO << "[pipeline] ingested " << path << ": " << report_.ingest.edges
           << " edges in " << report_.ingest.seconds << "s ("
           << report_.ingest.threads << " threads, " << report_.ingest.shards
           << " shards), CSR build " << report_.build_seconds << "s";

  // A reorder run stores only what it hands out: the reordered graph and
  // its permutation (reorder_stage).
  if (cache_on_ && cfg_.reorder == ReorderMode::kNone) {
    cache_timer.reset();
    store_.store_graph(base, g);
    report_.cache_seconds += cache_timer.seconds();
  }
  return reorder_stage(std::move(g), rkey);
}

graph::Graph PipelineRunner::reorder_stage(graph::Graph g,
                                           const CacheKey& rkey) {
  if (cfg_.reorder == ReorderMode::kNone) return g;
  BPART_SPAN("pipeline/reorder");
  Timer t;
  perm_ = graph::select_order(g, cfg_.reorder, cfg_.reorder_seed);
  graph::Graph rg = perm_.empty() ? std::move(g)
                                  : graph::apply_permutation(
                                        g, perm_, cfg_.ingest.threads);
  report_.reorder_seconds = t.seconds();
  LOG_INFO << "[pipeline] relabeled vertices ("
           << reorder_mode_name(cfg_.reorder) << ") in "
           << report_.reorder_seconds << "s";
  if (cache_on_) {
    Timer cache_timer;
    store_.store_graph(rkey, rg);
    store_.store_perm(rkey, perm_);
    report_.cache_seconds += cache_timer.seconds();
  }
  return rg;
}

partition::Partition PipelineRunner::partition_graph(const graph::Graph& g,
                                                     const CacheKey& graph_key,
                                                     const std::string& algo,
                                                     partition::PartId k) {
  // The base key identifies the *input* (file bytes / generator spec); the
  // revision pins the in-memory graph actually being partitioned, since a
  // caller may pass any graph under any key. Hashing it is cache time.
  Timer cache_timer;
  const CacheKey key = graph_key.derive(":algo=" + algo +
                                        ":k=" + std::to_string(k) +
                                        ":rev=" + revision_hex(g) + ":" +
                                        kPartitionKeyVersion);
  if (cache_on_) {
    if (auto cached = store_.load_partition(key)) {
      if (cached->num_vertices() == g.num_vertices() &&
          cached->num_parts() == k) {
        report_.cache_seconds += cache_timer.seconds();
        report_.partition_cache_hit = true;
        report_.partition_seconds = 0;
        LOG_INFO << "[pipeline] partition cache hit (" << algo << ", k=" << k
                 << ")";
        return std::move(*cached);
      }
      LOG_WARN << "artifact cache: partition entry shape mismatch for "
               << key.description() << "; rebuilding";
    }
  }
  report_.cache_seconds += cache_timer.seconds();

  BPART_SPAN("partition/run", "parts", static_cast<double>(k));
  Timer t;
  partition::Partition p = partition::create(algo)->partition(g, k);
  report_.partition_seconds = t.seconds();
  report_.partition_cache_hit = false;
  LOG_INFO << "[pipeline] partitioned with " << algo << " (k=" << k << ") in "
           << report_.partition_seconds << "s";

  if (cache_on_) {
    cache_timer.reset();
    store_.store_partition(key, p);
    report_.cache_seconds += cache_timer.seconds();
  }
  return p;
}

PipelineRunner::Result PipelineRunner::run_file(const std::string& path,
                                                const std::string& algo,
                                                partition::PartId k) {
  // The base key hashes the whole input file: compute it once per call,
  // inside the cache timer.
  const Timer cache_timer;
  const CacheKey base = base_graph_key(path);
  graph::Graph g = load_graph(path, base, cache_timer);
  // Preserve the stage report across the two calls: partition_graph only
  // touches the partition/cache fields.
  partition::Partition p = partition_graph(g, reordered_key(base), algo, k);
  return Result{std::move(g), std::move(p), perm_};
}

}  // namespace bpart::pipeline
