// Untraced closed-loop jobs: one client in one process, one job at a time.
// A job enters through the user's front door, PipelineRunner::run_file, and
// then runs the workload's analytics on the returned graph and partition.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <numeric>

#include "bench.hpp"
#include "dist/components.hpp"
#include "dist/pagerank.hpp"
#include "dist/sssp.hpp"
#include "engine/components.hpp"
#include "partition/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "walk/dist_walk.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace bpart;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kColdLoad: return "cold-load";
    case Workload::kIterate: return "iterate";
    case Workload::kWalk: return "walk";
  }
  return "?";
}

void Checks::expect(bool ok, std::string_view what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

pipeline::PipelineConfig pipeline_config(const RunSpec& run) {
  pipeline::PipelineConfig cfg;
  cfg.ingest.threads = run.knobs.ingest_threads;
  cfg.symmetrize = true;
  cfg.reorder = ReorderMode::kDegree;
  cfg.reorder_seed = run.seed;
  cfg.use_cache = true;
  cfg.cache_dir = run.cache_dir;
  return cfg;
}

dist::DistOptions dist_options(const Knobs& k) {
  dist::DistOptions opts;
  opts.threads = k.dist_threads;
  opts.exec.threads = k.exec_threads;
  opts.exec.chunk_edges = k.exec_chunk_edges;
  return opts;
}

engine::PageRankConfig pagerank_config(const Knobs& k) {
  engine::PageRankConfig cfg;
  cfg.iterations = kPrIterations;
  cfg.exec = dist_options(k).exec;
  return cfg;
}

engine::SsspConfig sssp_config(const Knobs& k) {
  engine::SsspConfig cfg;
  cfg.exec = dist_options(k).exec;
  return cfg;
}

walk::ThreadedWalkConfig walk_config(const RunSpec& run) {
  walk::ThreadedWalkConfig cfg;
  cfg.length = kWalkLength;
  cfg.walks_per_vertex = 1;
  cfg.seed = run.seed;
  cfg.exec = dist_options(run.knobs).exec;
  return cfg;
}

VertexId sssp_source(std::uint64_t seed, const std::vector<VertexId>& perm) {
  const auto input_id = static_cast<VertexId>(splitmix64(seed) % kVertices);
  return pipeline::PipelineRunner::to_internal(input_id, perm);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

void check_outputs(const RunSpec& run, const graph::Graph& g,
                   const partition::Partition& p, const AppOutputs& out,
                   const Expected& e, Checks& checks) {
  checks.expect(g.num_vertices() == kVertices, "graph has 2^18 vertices");
  checks.expect(p.num_vertices() == g.num_vertices() && p.fully_assigned() &&
                    p.num_parts() == kParts,
                "partition fully assigned with k parts");
  checks.expect(std::ranges::equal(p.assignment(), e.assignment),
                "partition identical across repetitions");

  if (run.workload == Workload::kIterate) {
    const auto& rank = out.pr.rank;
    const auto& ref = e.apps.pr.rank;
    const double sum = std::accumulate(rank.begin(), rank.end(), 0.0);
    checks.expect(std::abs(sum - 1.0) < 1e-6, "PageRank ranks sum to 1");
    double max_diff = rank.size() == ref.size() ? 0.0 : 1.0;
    for (std::size_t v = 0; max_diff <= 1e-8 && v < ref.size(); ++v)
      max_diff = std::max(max_diff, std::abs(rank[v] - ref[v]));
    checks.expect(max_diff <= 1e-8, "PageRank matches engine::pagerank");
    checks.expect(out.cc.num_components == e.apps.cc.num_components,
                  "CC component count matches engine");
    checks.expect(out.cc.label == e.apps.cc.label, "CC labels match engine");
    checks.expect(out.sssp.distance == e.apps.sssp.distance,
                  "SSSP distances match engine::sssp");
  }
  if (run.workload == Workload::kWalk) {
    checks.expect(out.walk.total_steps ==
                      std::uint64_t{g.num_vertices()} * kWalkLength,
                  "walk steps == |V| x 80");
    checks.expect(out.walk.total_steps == e.apps.walk.total_steps &&
                      out.walk.message_walks == e.apps.walk.message_walks,
                  "walk step and message counts identical across repetitions");
  }
}

namespace {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// One job's timings and outputs, kept only until they are checked.
struct Job {
  double setup_s = 0;
  double run_s = 0;
  pipeline::PipelineReport report;
  pipeline::PipelineRunner::Result loaded;
  AppOutputs apps;
};

Job run_job(const RunSpec& run) {
  if (run.workload == Workload::kColdLoad) fs::remove_all(run.cache_dir);
  Job job;
  pipeline::PipelineRunner runner(pipeline_config(run));
  Timer t;
  job.loaded = runner.run_file(run.input, kAlgo, kParts);
  job.setup_s = t.seconds();
  job.report = runner.report();

  const graph::Graph& g = job.loaded.graph;
  const partition::Partition& p = job.loaded.partition;
  const Knobs& k = run.knobs;
  switch (run.workload) {
    case Workload::kColdLoad:
      // No app runs: the cold run_file is the whole job (Table 2's cost).
      job.run_s = job.setup_s;
      break;
    case Workload::kIterate:
      t.reset();
      job.apps.pr = dist::pagerank(g, p, pagerank_config(k),
                                   dist::PrMode::kPull, dist_options(k));
      job.apps.cc = dist::connected_components(g, p, dist_options(k));
      job.apps.sssp =
          dist::sssp(g, p, sssp_source(run.seed, job.loaded.perm),
                     sssp_config(k), dist_options(k));
      job.run_s = t.seconds();
      break;
    case Workload::kWalk:
      t.reset();
      job.apps.walk = walk::run_simple_walks_dist(g, p, walk_config(run));
      job.run_s = t.seconds();
      break;
  }
  return job;
}

/// References from the first job: single-machine engine runs of the
/// iterate apps, and the first job's own deterministic outputs.
Expected expected_from(const RunSpec& run, const Job& first) {
  Expected e;
  const auto assign = first.loaded.partition.assignment();
  e.assignment.assign(assign.begin(), assign.end());
  e.apps.walk = first.apps.walk;
  if (run.workload == Workload::kIterate) {
    const graph::Graph& g = first.loaded.graph;
    const partition::Partition& p = first.loaded.partition;
    // The single-machine engines on the exec core, all cores: a different
    // implementation from the dist apps under test, and quick.
    exec::ExecConfig all_cores;
    all_cores.threads = run.knobs.nproc;
    engine::PageRankConfig pr_cfg;
    pr_cfg.iterations = kPrIterations;
    pr_cfg.exec = all_cores;
    engine::SsspConfig sssp_cfg = sssp_config(run.knobs);
    sssp_cfg.exec = all_cores;
    e.apps.pr = engine::pagerank(g, p, pr_cfg);
    e.apps.cc = engine::connected_components(g, p, {}, 200, all_cores);
    e.apps.sssp = engine::sssp(
        g, p, sssp_source(run.seed, first.loaded.perm), sssp_cfg);
  }
  return e;
}

void check_job(const RunSpec& run, const Job& job, bool warm, const Expected& e,
               Checks& checks) {
  checks.expect(job.report.graph_cache_hit == warm &&
                    job.report.partition_cache_hit == warm,
                warm ? "warm job hit the artifact cache"
                     : "cold job missed the artifact cache");
  check_outputs(run, job.loaded.graph, job.loaded.partition, job.apps, e,
                checks);
}

}  // namespace

UntracedResult run_jobs(const RunSpec& run, double budget_s, int min_jobs,
                        Checks& checks) {
  UntracedResult out;
  const bool warm = run.workload != Workload::kColdLoad;
  fs::remove_all(run.cache_dir);
  {
    // Warm-up: the first job in a process runs ~30% slower (page faults,
    // allocator growth), so it is checked but not timed. It runs on the
    // empty cache, so it also fills the cache the warm workloads read. It
    // yields the references and the partition quality every job shares.
    const Job warmup = run_job(run);
    out.expected = expected_from(run, warmup);
    check_job(run, warmup, false, out.expected, checks);
    out.quality =
        partition::evaluate(warmup.loaded.graph, warmup.loaded.partition);
  }
  double spent = 0;
  for (int i = 0; i < min_jobs || spent < budget_s; ++i) {
    Timer wall;
    const Job job = run_job(run);
    spent += wall.seconds();
    out.setup_s.push_back(job.setup_s);
    out.run_s.push_back(job.run_s);
    check_job(run, job, warm, out.expected, checks);
  }
  out.peak_rss_mb = peak_rss_mb();
  return out;
}

}  // namespace perfbench
