// perfbench — the repository benchmark program (see perfbench/README.md).
//
//   perfbench gen --seed N --out FILE
//       Writes the seeded input edge list (untimed; run.py caches it).
//   perfbench run --workload cold-load|iterate|walk --seed N --seconds S
//                 --trace 0|1 --input FILE --cache-dir DIR
//                 [--revision REV] [--source-digest HEX]
//       Untraced (--trace 0): timed closed-loop jobs, end-to-end metrics.
//       Traced (--trace 1): host ceilings and per-layer metrics.
//
// Human-readable rows go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit code 2 on bad
// arguments or a BPART_* environment variable, which could change what is
// measured.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;

Knobs pinned_knobs() {
  Knobs k;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    k.nproc = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  k.dist_threads = std::min(4u, k.nproc);
  k.ingest_threads = k.nproc;
  return k;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench gen --seed N --out FILE\n"
               "       perfbench run --workload cold-load|iterate|walk "
               "--seed N --seconds S --trace 0|1 --input FILE "
               "--cache-dir DIR [--revision REV] [--source-digest HEX]\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      usage("bad argument '" + key + "'");
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string required(const std::map<std::string, std::string>& flags,
                     const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end() || it->second.empty()) usage("missing --" + key);
  return it->second;
}

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || s[0] == '-')
    usage("bad " + what + " '" + s + "'");
  return v;
}

/// The knobs of util/env.hpp all start with BPART_; any of them set would
/// silently change thread counts, scheduling or caching under the benchmark.
bool refuse_bpart_env() {
  bool found = false;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "BPART_", 6) == 0) {
      std::cerr << "perfbench: refusing to run with " << *e
                << " set; the benchmark pins every knob in code\n";
      found = true;
    }
  return found;
}

int generate(const std::map<std::string, std::string>& flags) {
  bpart::graph::CommunityGraphConfig cfg;
  cfg.num_vertices = kVertices;
  cfg.avg_degree = kAvgDegree;
  cfg.seed = parse_u64(required(flags, "seed"), "seed");
  const std::string out = required(flags, "out");
  const std::string tmp = out + ".tmp";
  bpart::graph::save_text_edges(bpart::graph::community_scale_free(cfg), tmp);
  fs::rename(tmp, out);
  return 0;
}

/// A number with all its digits; JSON has no NaN or infinity.
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void print_meta(const RunSpec& run, bool trace,
                const std::map<std::string, std::string>& flags) {
  auto flag = [&](const char* key) {
    const auto it = flags.find(key);
    return it == flags.end() ? std::string("unknown") : it->second;
  };
  const Knobs& k = run.knobs;
  std::cout << "# meta {\"workload\": " << json_str(workload_name(run.workload))
            << ", \"seed\": " << run.seed
            << ", \"seconds\": " << num(run.seconds)
            << ", \"trace\": " << (trace ? 1 : 0) << ", \"nproc\": " << k.nproc
            << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
            << ", \"BPART_SIMD\": " << PERFBENCH_SIMD
            << ", \"BPART_NATIVE\": " << PERFBENCH_NATIVE
            << ", \"revision\": " << json_str(flag("revision"))
            << ", \"source_digest\": " << json_str(flag("source-digest"))
            << ", \"knobs\": {\"dist_machines\": " << kParts
            << ", \"dist_threads\": " << k.dist_threads
            << ", \"exec_threads_per_machine\": " << k.exec_threads
            << ", \"exec_chunk_edges\": " << k.exec_chunk_edges
            << ", \"ingest_threads\": " << k.ingest_threads
            << ", \"stream_batch\": 0, \"reorder\": \"degree\", \"cache_dir\": "
            << json_str(run.cache_dir) << "}}\n";
}

void print_samples(const char* name, const std::vector<double>& xs) {
  if (xs.empty()) return;
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  std::cout << "# " << name << ": median " << num(median(xs)) << " s, min "
            << num(*lo) << ", max " << num(*hi) << ", n " << xs.size() << "\n";
}

void print_result(const Metrics& metrics, const Checks& checks) {
  std::cout << "# checks: " << checks.attempted << " attempted, "
            << checks.failed << " failed, error_rate "
            << num(checks.attempted ? static_cast<double>(checks.failed) /
                                          static_cast<double>(checks.attempted)
                                    : 0)
            << " ratio\n";
  for (const Metric& m : metrics)
    std::cout << m.name << " " << num(m.value) << " " << m.unit << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.attempted
       << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json << (i ? ", " : "") << json_str(metrics[i].name)
         << ": {\"value\": " << num(metrics[i].value)
         << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  json << "}}";
  std::cout << json.str() << std::endl;
}

int run_benchmark(const std::map<std::string, std::string>& flags) {
  RunSpec run;
  const std::string w = required(flags, "workload");
  if (w == "cold-load") run.workload = Workload::kColdLoad;
  else if (w == "iterate") run.workload = Workload::kIterate;
  else if (w == "walk") run.workload = Workload::kWalk;
  else usage("unknown workload '" + w + "'");
  run.seed = parse_u64(required(flags, "seed"), "seed");
  run.seconds = static_cast<double>(
      parse_u64(required(flags, "seconds"), "seconds"));
  const std::string trace_flag = required(flags, "trace");
  if (trace_flag != "0" && trace_flag != "1") usage("--trace takes 0 or 1");
  const bool trace = trace_flag == "1";
  run.input = required(flags, "input");
  run.cache_dir = required(flags, "cache-dir");
  run.knobs = pinned_knobs();
  if (!fs::is_regular_file(run.input)) usage("no input file " + run.input);

  // The walk engine sizes its dist runtime by util::thread_count(), which
  // reads BPART_THREADS; setting it here is how that count is pinned.
  setenv("BPART_THREADS", std::to_string(run.knobs.dist_threads).c_str(), 1);
  // A fixed mmap threshold turns off glibc's adaptive one: every buffer of
  // 1 MiB or more is mapped fresh and unmapped on free. Each job then faults
  // in its own memory, as a one-job process does, and peak RSS tracks live
  // memory. With the adaptive threshold, memory kept across jobs made the
  // iterate peak read 245 or 315 MB from run to run.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  print_meta(run, trace, flags);

  Checks checks;
  Metrics metrics;
  constexpr int kMinJobs = 3;
  if (!trace) {
    const UntracedResult r = run_jobs(run, run.seconds, kMinJobs, checks);
    print_samples("setup_s", r.setup_s);
    print_samples("run_s", r.run_s);
    const auto& q = r.quality;
    std::cout << "# vertex_bias " << num(q.vertex_summary.bias)
              << " ratio\n# edge_bias " << num(q.edge_summary.bias)
              << " ratio\n";
    // Gated as max/mean (= 1 + bias): bias itself sits near 0, where the
    // spread across seeds is a large share of the median.
    metrics = {
        {"setup_s", median(r.setup_s), "s"},
        {"run_s", median(r.run_s), "s"},
        {"peak_rss_mb", r.peak_rss_mb, "MB"},
        {"edge_cut_ratio", q.edge_cut_ratio, "ratio"},
        {"vertex_imbalance", q.vertex_summary.max / q.vertex_summary.mean,
         "ratio"},
        {"edge_imbalance", q.edge_summary.max / q.edge_summary.mean, "ratio"},
    };
  } else {
    const HostCeilings host = probe_host(run.knobs.nproc);
    std::cout << "# host: read " << num(host.read_gbps_1t)
              << " GB/s at 1 thread, "
              << num(host.read_gbps_nt) << " GB/s at " << host.threads
              << " threads over a " << (host.array_bytes >> 20)
              << " MiB array (LLC " << (host.llc_bytes >> 20)
              << " MiB); ALU scaling " << num(host.alu_scaling) << " of "
              << host.threads << "\n";
    // Untraced medians to reconcile against, then the traced jobs.
    const UntracedResult r = run_jobs(run, 0.4 * run.seconds, 2, checks);
    print_samples("untraced setup_s", r.setup_s);
    print_samples("untraced run_s", r.run_s);
    metrics = run_traced(run, r, host, 0.6 * run.seconds, 2, checks);
  }
  fs::remove_all(run.cache_dir);
  print_result(metrics, checks);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage("missing command");
  if (refuse_bpart_env()) return 2;
  const std::string cmd = argv[1];
  const auto flags = parse_flags(argc, argv);
  try {
    if (cmd == "gen") return generate(flags);
    if (cmd == "run") return run_benchmark(flags);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command '" + cmd + "'");
}
