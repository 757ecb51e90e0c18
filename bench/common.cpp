#include "common.hpp"

#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>

#include "engine/components.hpp"
#include "engine/pagerank.hpp"
#include "partition/registry.hpp"
#include "pipeline/runner.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "walk/apps.hpp"

namespace bpart::bench {

namespace {
std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// The whole numbers of a comma list, or nullopt when any entry is junk.
std::optional<std::vector<unsigned>> parse_uint_list(const std::string& csv) {
  std::vector<unsigned> out;
  for (const auto& tok : split_csv(csv)) {
    unsigned v = 0;
    if (parse_whole(tok, v) != std::errc()) return std::nullopt;
    out.push_back(v);
  }
  return out;
}
}  // namespace

std::vector<std::string> graphs_from(const Options& opts) {
  return split_csv(opts.get("graphs", "livejournal,twitter,friendster"));
}

std::vector<unsigned> uint_list_from(const Options& opts,
                                     const std::string& key,
                                     const std::string& fallback) {
  const std::string list = opts.get(key, fallback);
  if (auto out = parse_uint_list(list)) return *out;
  LOG_WARN << "option --" << key << "=" << list
           << " is not a list of numbers; using " << fallback;
  return parse_uint_list(fallback).value();
}

pipeline::CacheKey dataset_cache_key(const std::string& name) {
  const graph::DatasetSpec& spec = graph::dataset_spec(name);
  std::ostringstream os;
  // Every knob that determines build_dataset's output, plus a version tag
  // bumped when the generator itself changes.
  os << "dataset:dsv1:" << spec.name << ":n=" << spec.base_vertices
     << ":d=" << spec.avg_degree << ":exp=" << spec.degree_exponent
     << ":mix=" << spec.mixing << ":noise=" << spec.id_noise
     << ":seed=" << spec.seed << ":scale=" << dataset_scale();
  return pipeline::CacheKey::for_spec(os.str());
}

graph::Graph build_graph(const std::string& name) {
  Timer t;
  const bool caching = pipeline::ArtifactStore::enabled();
  const pipeline::ArtifactStore store;
  const pipeline::CacheKey key = dataset_cache_key(name);
  if (caching) {
    if (auto cached = store.load_graph(key)) {
      std::fprintf(stderr,
                   "[bench] %s: %u vertices, %llu edges (cache hit, %.3fs)\n",
                   name.c_str(), cached->num_vertices(),
                   static_cast<unsigned long long>(cached->num_edges()),
                   t.seconds());
      return std::move(*cached);
    }
  }
  graph::Graph g = graph::build_dataset(graph::dataset_spec(name));
  std::fprintf(stderr, "[bench] %s: %u vertices, %llu edges (%.1fs)\n",
               name.c_str(), g.num_vertices(),
               static_cast<unsigned long long>(g.num_edges()), t.seconds());
  if (caching) store.store_graph(key, g);
  return g;
}

partition::Partition run_partitioner(const graph::Graph& g,
                                     const std::string& algo,
                                     partition::PartId k, double* seconds) {
  Timer t;
  partition::Partition p = partition::create(algo)->partition(g, k);
  if (seconds != nullptr) *seconds = t.seconds();
  return p;
}

partition::Partition run_partitioner_cached(const std::string& graph_name,
                                            const graph::Graph& g,
                                            const std::string& algo,
                                            partition::PartId k) {
  return pipeline::PipelineRunner().partition_graph(
      g, dataset_cache_key(graph_name), algo, k);
}

const std::vector<std::string>& paper_applications() {
  static const std::vector<std::string> apps = {
      "ppr", "rwj", "rwd", "deepwalk", "node2vec", "pagerank", "cc"};
  return apps;
}

double app_total_seconds(const graph::Graph& g,
                         const partition::Partition& parts,
                         const std::string& app) {
  if (app == "pagerank") {
    return engine::pagerank(g, parts).run.total_seconds();
  }
  if (app == "cc") {
    return engine::connected_components(g, parts).run.total_seconds();
  }
  const auto walk_app = walk::create_walk_app(app);
  walk::WalkConfig cfg;
  cfg.walks_per_vertex = 1;  // the paper starts |V| walks
  return walk::run_walks(g, parts, *walk_app, cfg).run.total_seconds();
}

obs::BenchReport& report() {
  static obs::BenchReport r;
  return r;
}

void emit(const std::string& title, const Table& table,
          const std::string& csv_name) {
  std::cout << "\n== " << title << " ==\n" << table.to_ascii();
  const std::string dir = bench_output_dir();
  if (!dir.empty()) {
    const std::string path = dir + "/" + csv_name + ".csv";
    if (table.write_csv(path))
      std::cout << "(csv: " << path << ")\n";
    obs::BenchReport& r = report();
    if (r.name() == "unnamed") r.set_name(csv_name);
    r.set_table(table);
    r.add_info("title", title);
    r.add_info("dataset_scale", dataset_scale());
    const std::string json_path = r.write(dir);
    if (!json_path.empty()) std::cout << "(report: " << json_path << ")\n";
  }
  std::cout.flush();
}

}  // namespace bpart::bench
