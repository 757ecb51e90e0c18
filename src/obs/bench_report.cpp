#include "obs/bench_report.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>

#include <unistd.h>

#include "obs/report.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace bpart::obs {

namespace {

/// Provenance block (the v1 -> v1.1 addition): enough environment to
/// re-run the measurement. Emitted at serialization time so it reflects
/// the knobs the benches actually saw.
void write_meta(json::Writer& w) {
  w.key("meta").begin_object();
  w.kv("thread_count", static_cast<std::uint64_t>(thread_count()));
  w.kv("dataset_scale", dataset_scale());
#ifdef NDEBUG
  w.kv("build_type", "release");
#else
  w.kv("build_type", "debug");
#endif
  w.kv("pid", static_cast<std::int64_t>(::getpid()));
  w.key("env").begin_object();
  static constexpr const char* kKnobs[] = {
      "BPART_THREADS", "BPART_SCALE",    "BPART_EXEC_THREADS", "BPART_TRACE",
      "BPART_METRICS", "BPART_TIMELINE",
  };
  for (const char* knob : kKnobs) {
    if (const char* v = std::getenv(knob); v != nullptr) w.kv(knob, v);
  }
  w.end_object();
  w.end_object();
}

}  // namespace

void BenchReport::add_run(std::string label, cluster::RunReport report) {
  runs_.emplace_back(std::move(label), std::move(report));
}

void BenchReport::add_quality(std::string label,
                              partition::QualityReport report) {
  quality_.emplace_back(std::move(label), std::move(report));
}

void BenchReport::add_pipeline(std::string label,
                               pipeline::PipelineReport report) {
  pipeline_.emplace_back(std::move(label), std::move(report));
}

void BenchReport::add_info(std::string key, std::string value) {
  set_info(std::move(key), std::move(value));
}

void BenchReport::add_info(std::string key, double value) {
  set_info(std::move(key), value);
}

void BenchReport::set_info(std::string key,
                           std::variant<std::string, double> value) {
  // Last write wins so repeated emit() calls don't produce duplicate keys.
  for (auto& [k, v] : info_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  info_.emplace_back(std::move(key), std::move(value));
}

void BenchReport::clear() {
  name_ = "unnamed";
  table_.reset();
  runs_.clear();
  quality_.clear();
  pipeline_.clear();
  info_.clear();
}

std::string BenchReport::to_json() const {
  json::Writer w;
  w.begin_object();
  w.kv("schema", kSchema);
  w.kv("name", name_);
  w.kv("created_unix",
       static_cast<std::int64_t>(
           std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::system_clock::now().time_since_epoch())
               .count()));
  write_meta(w);

  w.key("info").begin_object();
  for (const auto& [key, value] : info_) {
    if (std::holds_alternative<double>(value))
      w.kv(key, std::get<double>(value));
    else
      w.kv(key, std::get<std::string>(value));
  }
  w.end_object();

  w.key("table").begin_object();
  w.key("headers").begin_array();
  if (table_)
    for (const std::string& h : table_->headers()) w.value(h);
  w.end_array();
  w.key("rows").begin_array();
  if (table_) {
    for (std::size_t r = 0; r < table_->rows(); ++r) {
      w.begin_array();
      for (std::size_t c = 0; c < table_->cols(); ++c) {
        const Table::Cell& cell = table_->at(r, c);
        if (const auto* s = std::get_if<std::string>(&cell))
          w.value(*s);
        else if (const auto* i = std::get_if<std::int64_t>(&cell))
          w.value(*i);
        else
          w.value(std::get<double>(cell));
      }
      w.end_array();
    }
  }
  w.end_array();
  w.end_object();

  if (!runs_.empty()) {
    w.key("runs").begin_array();
    for (const auto& [label, report] : runs_) {
      w.begin_object().kv("label", label).key("report");
      write_run_report(w, report);
      w.end_object();
    }
    w.end_array();
  }
  if (!quality_.empty()) {
    w.key("quality").begin_array();
    for (const auto& [label, report] : quality_) {
      w.begin_object().kv("label", label).key("report");
      write_quality(w, report);
      w.end_object();
    }
    w.end_array();
  }
  if (!pipeline_.empty()) {
    w.key("pipeline").begin_array();
    for (const auto& [label, report] : pipeline_) {
      w.begin_object().kv("label", label).key("report");
      write_pipeline_report(w, report);
      w.end_object();
    }
    w.end_array();
  }

  w.key("metrics");
  write_metrics(w, metrics_snapshot());
  w.end_object();
  return w.str();
}

std::string BenchReport::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    LOG_WARN << "[obs] cannot write bench report " << path;
    return "";
  }
  f << to_json() << '\n';
  if (!f) {
    LOG_WARN << "[obs] short write on bench report " << path;
    return "";
  }
  return path;
}

}  // namespace bpart::obs
