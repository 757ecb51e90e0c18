// Shared pieces of the repository benchmark (see perfbench/README.md):
// the pinned input and knob settings, the closed-loop job runners and the
// small measuring helpers the untraced and traced runs both use.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dist/runtime.hpp"
#include "engine/components.hpp"
#include "engine/pagerank.hpp"
#include "engine/sssp.hpp"
#include "partition/metrics.hpp"
#include "pipeline/runner.hpp"
#include "walk/dist_walk.hpp"

namespace perfbench {

using bpart::graph::VertexId;

// ---- The input: fixed size, generated from --seed ------------------------
inline constexpr VertexId kVertices = VertexId{1} << 18;
inline constexpr double kAvgDegree = 30.0;  ///< Twitter-like d̄, symmetrized.
inline constexpr bpart::partition::PartId kParts = 8;
inline constexpr const char* kAlgo = "bpart";
inline constexpr unsigned kPrIterations = 20;
inline constexpr unsigned kWalkLength = 80;  ///< DeepWalk's walk length.

enum class Workload { kColdLoad, kIterate, kWalk };
[[nodiscard]] const char* workload_name(Workload w);

/// Every thread-count and scheduling knob, pinned in code so no
/// environment variable can change what the benchmark measures. BPart's
/// stream batch is pinned by its default config (0, the sequential pass),
/// which only $BPART_STREAM_BATCH could override — and perfbench refuses
/// to run with any BPART_* variable set.
struct Knobs {
  unsigned nproc = 1;           ///< CPUs this process may run on.
  unsigned dist_threads = 1;    ///< dist runtime workers: min(4, nproc).
  unsigned ingest_threads = 1;  ///< parallel parser threads: nproc.
  unsigned exec_threads = 1;    ///< exec-core workers per machine.
  std::uint32_t exec_chunk_edges = 4096;
};
[[nodiscard]] Knobs pinned_knobs();

struct RunSpec {
  Workload workload = Workload::kIterate;
  std::uint64_t seed = 1;
  double seconds = 10;      ///< Measuring budget of the run.
  std::string input;        ///< Text edge list made by `perfbench gen`.
  std::string cache_dir;    ///< Artifact directory owned by this run.
  Knobs knobs;
};

/// Tallies of output checks; failures are logged to stderr as they occur.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, std::string_view what);
};

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// ---- Configuration of each layer call --------------------------------------
[[nodiscard]] bpart::pipeline::PipelineConfig pipeline_config(
    const RunSpec& run);
[[nodiscard]] bpart::dist::DistOptions dist_options(const Knobs& k);
[[nodiscard]] bpart::engine::PageRankConfig pagerank_config(const Knobs& k);
[[nodiscard]] bpart::engine::SsspConfig sssp_config(const Knobs& k);
[[nodiscard]] bpart::walk::ThreadedWalkConfig walk_config(const RunSpec& run);
/// SSSP source in the reordered id space: an input id drawn from the seed.
[[nodiscard]] VertexId sssp_source(std::uint64_t seed,
                                   const std::vector<VertexId>& perm);

// ---- Output checks (jobs.cpp) -----------------------------------------------
/// What a workload's analytics calls return.
struct AppOutputs {
  bpart::engine::PageRankResult pr;
  bpart::engine::ComponentsResult cc;
  bpart::engine::SsspResult sssp;
  bpart::walk::DistWalkReport walk;
};

/// What every job of a run must reproduce: single-machine engine results
/// for the iterate apps and the first job's deterministic outputs.
struct Expected {
  std::vector<bpart::partition::PartId> assignment;
  AppOutputs apps;
};

/// Checks a job's partition and app outputs against `expected`.
void check_outputs(const RunSpec& run, const bpart::graph::Graph& g,
                   const bpart::partition::Partition& p,
                   const AppOutputs& out, const Expected& expected,
                   Checks& checks);

// ---- Untraced closed-loop jobs (jobs.cpp) ----------------------------------
/// Raw samples of the untraced jobs of one run.
struct UntracedResult {
  std::vector<double> setup_s;  ///< run_file wall time per timed job.
  std::vector<double> run_s;    ///< analytics wall time per timed job.
  double peak_rss_mb = 0;       ///< Peak RSS after the timed jobs.
  bpart::partition::QualityReport quality;  ///< Same partition every job.
  Expected expected;
};

/// Empties the run's artifact directory, runs one untimed warm-up job (which
/// fills the directory), then timed jobs until `budget_s` seconds of job
/// time have passed and at least `min_jobs` ran. Every job's outputs are
/// checked into `checks`, none of it timed.
UntracedResult run_jobs(const RunSpec& run, double budget_s, int min_jobs,
                        Checks& checks);

// ---- Host ceilings (host_probe.cpp) ----------------------------------------
struct HostCeilings {
  double read_gbps_1t = 0;  ///< Streaming read bandwidth, one thread.
  double read_gbps_nt = 0;  ///< The same with `threads` threads.
  /// Speed-up of a fixed per-thread ALU loop run on `threads` threads at
  /// once over one thread: `threads` on an idle host with that many cores.
  double alu_scaling = 0;
  unsigned threads = 1;
  std::uint64_t llc_bytes = 0;    ///< Last-level cache the OS reports.
  std::uint64_t array_bytes = 0;  ///< Array the read probes stream over.
};
[[nodiscard]] HostCeilings probe_host(unsigned threads);

// ---- Traced run (traced.cpp) -----------------------------------------------
/// Per-layer metrics from calling each layer's public functions one at a
/// time (medians over traced jobs), the host ceilings and the
/// reconciliation against the untraced samples in `untraced`.
Metrics run_traced(const RunSpec& run, const UntracedResult& untraced,
                   const HostCeilings& host, double budget_s, int min_jobs,
                   Checks& checks);

/// Median of `xs`; 0 when empty.
[[nodiscard]] double median(std::vector<double> xs);

}  // namespace perfbench
