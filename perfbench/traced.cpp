// Traced run: the same job as jobs.cpp, but with each layer's public
// functions called one at a time and timed on their own. The layer rows plus
// an explicit unattributed_s add up to the untraced setup_s and run_s; the
// traced job's wall time minus the untraced median is the tracing overhead.
// Layers a workload does not exercise report 0.
#include <sys/resource.h>

#include <filesystem>
#include <map>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "dist/components.hpp"
#include "dist/dist_graph.hpp"
#include "dist/pagerank.hpp"
#include "dist/sssp.hpp"
#include "graph/reorder.hpp"
#include "obs/metrics.hpp"
#include "partition/bpart.hpp"
#include "pipeline/artifact_store.hpp"
#include "pipeline/ingest.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace bpart;

namespace {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Total bytes of the regular files in `dir` (0 when it does not exist).
std::uint64_t dir_bytes(const std::string& dir) {
  std::error_code ec;
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  return total;
}

/// Bytes the pull gather touches per in-edge and iteration: a 4-byte
/// neighbour id and the neighbour's 8-byte contribution.
constexpr double kPullBytesPerEdge = 12.0;

constexpr const char* kApps[] = {"pr", "cc", "sssp", "walk"};

/// Every per-layer metric in print order, with its unit.
Metrics metric_table() {
  Metrics m = {
      {"pipeline.ingest_s", 0, "s"},
      {"pipeline.ingest_mb_per_s", 0, "MB/s"},
      {"pipeline.ingest_ceiling_frac", 0, "ratio"},
      {"pipeline.cache_load_s", 0, "s"},
      {"pipeline.cache_store_s", 0, "s"},
      {"pipeline.cache_mb", 0, "MB"},
      {"graph.csr_build_s", 0, "s"},
      {"graph.csr_edges_per_s", 0, "1/s"},
      {"graph.reorder_s", 0, "s"},
      {"partition.bpart_s", 0, "s"},
      {"partition.stream_s", 0, "s"},
      {"partition.layers", 0, "count"},
      {"partition.pieces", 0, "count"},
      {"dist.distgraph_s", 0, "s"},
  };
  for (const char* app : kApps) {
    const std::string p = std::string("dist.") + app + ".";
    for (const auto& [name, unit] :
         {std::pair{"call_s", "s"}, {"superstep_s", "s"}, {"prep_s", "s"},
          {"compute_crit_s", "s"}, {"wait_s", "s"}, {"wait_ratio", "ratio"},
          {"skew", "ratio"}, {"supersteps", "count"}, {"mb_sent", "MB"},
          {"cpu_cores", "cores"}})
      m.push_back({p + name, 0, unit});
  }
  const Metrics tail = {
      {"exec.chunks", 0, "count"},
      {"exec.steals", 0, "count"},
      {"exec.pr_gather_gbps", 0, "GB/s"},
      {"exec.pr_gather_ceiling_frac", 0, "ratio"},
      {"walk.steps", 0, "count"},
      {"walk.message_walks", 0, "count"},
      {"walk.remote_frac", 0, "ratio"},
      {"walk.steps_per_s", 0, "1/s"},
      {"host.read_gbps_1t", 0, "GB/s"},
      {"host.read_gbps_nt", 0, "GB/s"},
      {"host.alu_scaling", 0, "ratio"},
      {"host.llc_mb", 0, "MB"},
      {"host.probe_array_mb", 0, "MB"},
      {"setup.layers_s", 0, "s"},
      {"setup.unattributed_s", 0, "s"},
      {"setup.untraced_s", 0, "s"},
      {"setup.traced_s", 0, "s"},
      {"setup.trace_overhead_s", 0, "s"},
      {"run.layers_s", 0, "s"},
      {"run.unattributed_s", 0, "s"},
      {"run.untraced_s", 0, "s"},
      {"run.traced_s", 0, "s"},
      {"run.trace_overhead_s", 0, "s"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

/// One traced job's values by metric name.
using Row = std::map<std::string, double>;

/// The metrics whose sum is the traced set-up, i.e. run_file's layers.
constexpr const char* kSetupLayers[] = {
    "pipeline.cache_load_s", "pipeline.ingest_s", "graph.csr_build_s",
    "pipeline.cache_store_s", "graph.reorder_s", "partition.bpart_s"};

struct Loaded {
  graph::Graph graph;
  partition::Partition partition;
  std::vector<VertexId> perm;
  double setup_s = 0;  ///< Wall time of the whole traced set-up.
};

/// Cold set-up, layer by layer: what run_file does on an empty cache.
Loaded traced_cold_setup(const RunSpec& run, Row& row, Checks& checks) {
  fs::remove_all(run.cache_dir);
  const pipeline::PipelineConfig cfg = pipeline_config(run);
  const pipeline::ArtifactStore store(run.cache_dir);
  Loaded out;
  Timer total;

  Timer t;
  const auto key = pipeline::CacheKey::for_file(run.input, "perfbench:sym=1");
  const bool graph_missed = !store.load_graph(key).has_value();
  row["pipeline.cache_load_s"] += t.seconds();

  t.reset();
  pipeline::IngestReport ingest;
  graph::EdgeList edges =
      pipeline::ingest_text_edges(run.input, cfg.ingest, &ingest);
  row["pipeline.ingest_s"] = t.seconds();
  row["pipeline.ingest_mb_per_s"] =
      static_cast<double>(ingest.bytes) / 1e6 / row["pipeline.ingest_s"];

  {
    t.reset();
    const graph::Graph base =
        graph::Graph::from_edges_symmetric(std::move(edges));
    row["graph.csr_build_s"] = t.seconds();
    row["graph.csr_edges_per_s"] =
        static_cast<double>(base.num_edges()) / row["graph.csr_build_s"];

    t.reset();
    store.store_graph(key, base);
    row["pipeline.cache_store_s"] += t.seconds();

    t.reset();
    out.perm = graph::select_order(base, cfg.reorder, cfg.reorder_seed);
    out.graph = graph::apply_permutation(base, out.perm);
    row["graph.reorder_s"] = t.seconds();
  }

  const auto rkey = key.derive(":ro=degree");
  t.reset();
  store.store_graph(rkey, out.graph);
  store.store_perm(rkey, out.perm);
  row["pipeline.cache_store_s"] += t.seconds();

  t.reset();
  const auto pkey = rkey.derive(
      ":algo=bpart:k=8:rev=" +
      std::to_string(pipeline::graph_revision(out.graph)));
  const bool part_missed = !store.load_partition(pkey).has_value();
  row["pipeline.cache_load_s"] += t.seconds();

  t.reset();
  partition::BPartTrace trace;
  out.partition =
      partition::BPart().partition_traced(out.graph, kParts, &trace);
  row["partition.bpart_s"] = t.seconds();
  row["partition.layers"] = static_cast<double>(trace.layers.size());
  double pieces = 0;
  for (const auto& layer : trace.layers) pieces += layer.pieces;
  row["partition.pieces"] = pieces;

  t.reset();
  store.store_partition(pkey, out.partition);
  row["pipeline.cache_store_s"] += t.seconds();
  out.setup_s = total.seconds();
  row["pipeline.cache_mb"] =
      static_cast<double>(dir_bytes(run.cache_dir)) / 1e6;
  checks.expect(graph_missed && part_missed, "traced cold set-up missed");
  return out;
}

/// BPart's first-layer streaming pass on its own, with BPart's config.
double time_first_stream_pass(const graph::Graph& g) {
  const partition::BPartConfig bc;
  partition::StreamConfig sc;
  sc.balance_weight_c = bc.balance_weight_c;
  sc.gamma = bc.gamma;
  sc.alpha = bc.alpha;
  sc.alpha_scale = bc.alpha_scale;
  sc.capacity_slack = bc.capacity_slack;
  sc.batch_size = bc.stream_batch;
  sc.threads = bc.stream_threads;
  sc.refine_passes = bc.refine_passes;
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  Timer t;
  (void)partition::greedy_stream_partition(g, all,
                                           kParts * bc.oversplit_factor, sc);
  return t.seconds();
}

/// Warm set-up: run_file's two steps, each answered from the artifacts.
Loaded traced_warm_setup(const RunSpec& run, Row& row, Checks& checks) {
  pipeline::PipelineRunner runner(pipeline_config(run));
  Loaded out;
  Timer total;
  out.graph = runner.load_graph(run.input);
  out.partition = runner.partition_graph(
      out.graph, runner.graph_key(run.input), kAlgo, kParts);
  out.setup_s = total.seconds();
  out.perm = runner.permutation();
  row["pipeline.cache_load_s"] = out.setup_s;
  row["pipeline.cache_mb"] =
      static_cast<double>(dir_bytes(run.cache_dir)) / 1e6;
  checks.expect(runner.report().graph_cache_hit &&
                    runner.report().partition_cache_hit,
                "traced warm set-up hit the artifact cache");
  return out;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            std::string_view name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

/// The dist.<app>.* rows of one measured app call.
void record_app(Row& row, const std::string& app, double call_s,
                double cpu_s, const cluster::RunReport& r) {
  const std::string p = "dist." + app + ".";
  double crit = 0;
  for (const auto& it : r.iterations) {
    double slowest = 0;
    for (const auto& m : it.machines)
      slowest = std::max(slowest, m.compute_seconds);
    crit += slowest;
  }
  const auto per_machine = r.compute_seconds_per_machine();
  const double compute =
      std::accumulate(per_machine.begin(), per_machine.end(), 0.0);
  const double max_compute =
      per_machine.empty()
          ? 0
          : *std::max_element(per_machine.begin(), per_machine.end());
  row[p + "call_s"] = call_s;
  row[p + "superstep_s"] = r.total_seconds();
  row[p + "prep_s"] = call_s - r.total_seconds();
  row[p + "compute_crit_s"] = crit;
  row[p + "wait_s"] = r.total_wait_seconds();
  row[p + "wait_ratio"] = r.wait_ratio();
  row[p + "skew"] = compute > 0 ? max_compute * static_cast<double>(
                                                    per_machine.size()) /
                                      compute
                                : 0;
  row[p + "supersteps"] = static_cast<double>(r.iterations.size());
  row[p + "mb_sent"] = static_cast<double>(r.total_bytes_sent()) / 1e6;
  row[p + "cpu_cores"] = call_s > 0 ? cpu_s / call_s : 0;
}

/// Times one app call with its process CPU time; returns its outputs.
template <typename Call>
auto measured(Row& row, const std::string& app, Call&& call) {
  const double cpu0 = process_cpu_seconds();
  Timer t;
  auto result = call();
  const double call_s = t.seconds();
  record_app(row, app, call_s, process_cpu_seconds() - cpu0, result.run);
  return result;
}

/// One traced job: set-up and run layer by layer, reconciled in `row`.
void traced_job(const RunSpec& run, const Expected& expected, Row& row,
                Checks& checks) {
  const bool cold = run.workload == Workload::kColdLoad;
  const Loaded in = cold ? traced_cold_setup(run, row, checks)
                         : traced_warm_setup(run, row, checks);
  double setup_layers = 0;
  for (const char* name : kSetupLayers) setup_layers += row[name];
  row["setup.layers_s"] = setup_layers;
  row["setup.traced_s"] = in.setup_s;

  const graph::Graph& g = in.graph;
  const partition::Partition& p = in.partition;
  const Knobs& k = run.knobs;
  AppOutputs apps;
  double run_total = 0;
  double run_layers = 0;
  if (cold) {
    // cold-load runs no app: its run_s is its set-up, the cold run_file.
    run_total = in.setup_s;
    run_layers = setup_layers;
    row["partition.stream_s"] = time_first_stream_pass(g);
  } else {
    {
      Timer t;
      const dist::DistGraph dg(g, p);
      row["dist.distgraph_s"] = t.seconds();
    }
    const auto before = obs::metrics_snapshot();
    Timer total;
    if (run.workload == Workload::kIterate) {
      apps.pr = measured(row, "pr", [&] {
        return dist::pagerank(g, p, pagerank_config(k), dist::PrMode::kPull,
                              dist_options(k));
      });
      apps.cc = measured(row, "cc", [&] {
        return dist::connected_components(g, p, dist_options(k));
      });
      apps.sssp = measured(row, "sssp", [&] {
        return dist::sssp(g, p, sssp_source(run.seed, in.perm), sssp_config(k),
                          dist_options(k));
      });
    } else {
      apps.walk = measured(row, "walk", [&] {
        return walk::run_simple_walks_dist(g, p, walk_config(run));
      });
    }
    run_total = total.seconds();
    const auto after = obs::metrics_snapshot();
    for (const char* name : {"exec.chunks", "exec.steals"})
      row[name] = static_cast<double>(counter_value(after, name) -
                                      counter_value(before, name));
    for (const char* app : kApps)
      run_layers += row[std::string("dist.") + app + ".call_s"];
  }
  row["run.layers_s"] = run_layers;
  row["run.traced_s"] = run_total;
  check_outputs(run, g, p, apps, expected, checks);

  if (run.workload == Workload::kIterate && row["dist.pr.compute_crit_s"] > 0)
    row["exec.pr_gather_gbps"] =
        static_cast<double>(g.num_edges()) * kPrIterations *
        kPullBytesPerEdge / row["dist.pr.compute_crit_s"] / 1e9;
  if (run.workload == Workload::kWalk) {
    const auto& w = apps.walk;
    row["walk.steps"] = static_cast<double>(w.total_steps);
    row["walk.message_walks"] = static_cast<double>(w.message_walks);
    row["walk.remote_frac"] =
        w.total_steps > 0 ? static_cast<double>(w.message_walks) /
                                static_cast<double>(w.total_steps)
                          : 0;
    const double superstep_s = row["dist.walk.superstep_s"];
    row["walk.steps_per_s"] =
        superstep_s > 0 ? static_cast<double>(w.total_steps) / superstep_s : 0;
  }
}

}  // namespace

Metrics run_traced(const RunSpec& run, const UntracedResult& untraced,
                   const HostCeilings& host, double budget_s, int min_jobs,
                   Checks& checks) {
  std::map<std::string, std::vector<double>> samples;
  double spent = 0;
  for (int i = 0; i < min_jobs || spent < budget_s; ++i) {
    Timer wall;
    Row row;
    traced_job(run, untraced.expected, row, checks);
    spent += wall.seconds();
    for (const auto& [name, value] : row) samples[name].push_back(value);
  }

  Metrics metrics = metric_table();
  Row med;
  for (const auto& [name, values] : samples) med[name] = median(values);
  // Reconciliation: layers + unattributed = the untraced median, and the
  // traced job's own wall time minus that median is the tracing overhead.
  for (const std::string phase : {"setup", "run"}) {
    const double untraced_s =
        median(phase == "setup" ? untraced.setup_s : untraced.run_s);
    med[phase + ".untraced_s"] = untraced_s;
    med[phase + ".unattributed_s"] = untraced_s - med[phase + ".layers_s"];
    med[phase + ".trace_overhead_s"] = med[phase + ".traced_s"] - untraced_s;
  }
  med["host.read_gbps_1t"] = host.read_gbps_1t;
  med["host.read_gbps_nt"] = host.read_gbps_nt;
  med["host.alu_scaling"] = host.alu_scaling;
  med["host.llc_mb"] = static_cast<double>(host.llc_bytes) / (1 << 20);
  med["host.probe_array_mb"] =
      static_cast<double>(host.array_bytes) / (1 << 20);
  if (host.read_gbps_nt > 0) {
    med["pipeline.ingest_ceiling_frac"] =
        med["pipeline.ingest_mb_per_s"] / 1e3 / host.read_gbps_nt;
    med["exec.pr_gather_ceiling_frac"] =
        med["exec.pr_gather_gbps"] / host.read_gbps_nt;
  }
  for (Metric& m : metrics) {
    const auto it = med.find(m.name);
    if (it != med.end()) m.value = it->second;
  }
  return metrics;
}

}  // namespace perfbench
