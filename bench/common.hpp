// Shared plumbing for the paper-reproduction benches: dataset construction,
// partitioner invocation with timing, and table emission (stdout + CSV).
#pragma once

#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "obs/bench_report.hpp"
#include "partition/partition.hpp"
#include "pipeline/artifact_store.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace bpart::bench {

/// The process-wide machine-readable report. Benches attach runs/quality/
/// pipeline stats to it as they go; emit() fills in the table and writes
/// BENCH_<name>.json next to the CSV (name defaults to csv_name).
obs::BenchReport& report();

/// Parse --graphs=a,b,c (default: all three paper datasets).
std::vector<std::string> graphs_from(const Options& opts);

/// Parse --parts=4,8,16 style lists. An entry that is not a whole number
/// ("8x", "x") warns and gives the fallback list.
std::vector<unsigned> uint_list_from(const Options& opts,
                                     const std::string& key,
                                     const std::string& fallback);

/// Build a dataset by registry name, logging size to stderr. Consults the
/// artifact store first (key: generator spec + $BPART_SCALE), so repeated
/// bench runs skip regeneration; $BPART_CACHE=0 disables.
graph::Graph build_graph(const std::string& name);

/// Artifact-cache key of a named dataset at the current $BPART_SCALE.
pipeline::CacheKey dataset_cache_key(const std::string& name);

/// Run a partitioner by name; wall-clock seconds go to *seconds if set.
/// Always executes (no cache) — this is what timing benches measure.
partition::Partition run_partitioner(const graph::Graph& g,
                                     const std::string& algo,
                                     partition::PartId k,
                                     double* seconds = nullptr);

/// Cached variant for benches that measure *downstream* work (walk/engine
/// apps) rather than partitioning itself: PipelineRunner::partition_graph
/// under dataset_cache_key(graph_name), so a warm artifact store serves
/// the stored assignment.
partition::Partition run_partitioner_cached(const std::string& graph_name,
                                            const graph::Graph& g,
                                            const std::string& algo,
                                            partition::PartId k);

/// Print the table under a header line and drop a CSV alongside
/// (bench_out/<csv_name>.csv unless $BPART_OUT_DIR overrides).
void emit(const std::string& title, const Table& table,
          const std::string& csv_name);

/// The seven applications of Fig. 14/15, paper order: the five random-walk
/// algorithms then the two Gemini iteration apps.
const std::vector<std::string>& paper_applications();

/// Simulated end-to-end seconds of one application under one partition
/// (walk apps: |V| walkers with each app's paper settings; "pagerank": ten
/// iterations; "cc": to convergence).
double app_total_seconds(const graph::Graph& g,
                         const partition::Partition& parts,
                         const std::string& app);

}  // namespace bpart::bench
