// Machine-readable bench reports: every bench that prints a table also
// drops a BENCH_<name>.json next to its CSV, so the perf trajectory
// accumulates run over run instead of living in scrollback.
//
// Schema (validated by scripts/validate_obs.py and tests/obs):
//   {
//     "schema": "bpart-bench-report/v1.1",
//     "name": "dist_runtime",
//     "created_unix": 1754550000,
//     "meta": {"thread_count": 8, "dataset_scale": 1.0,
//              "build_type": "release", "pid": 1234,
//              "env": {"BPART_THREADS": "8", ...}},
//     "info": {"title": "...", "dataset_scale": 1.0, ...},
//     "table": {"headers": [...], "rows": [[cell, ...], ...]},
//     "runs": [{"label": "bpart/pagerank/measured", "report": {RunReport}}],
//     "quality": [{"label": "bpart", "report": {QualityReport}}],
//     "pipeline": [{"label": "cold", "report": {PipelineReport}}],
//     "metrics": {MetricsSnapshot}
//   }
// runs/quality/pipeline are present only when attached; metrics snapshots
// whatever the process has recorded at write time. The meta block is
// auto-emitted provenance (the v1 -> v1.1 schema bump): effective thread
// count and scale, the build type, and every BPART_* knob that was
// actually set in the environment — enough to re-run the measurement.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "cluster/bsp.hpp"
#include "partition/metrics.hpp"
#include "pipeline/runner.hpp"
#include "util/table.hpp"

namespace bpart::obs {

class BenchReport {
 public:
  static constexpr const char* kSchema = "bpart-bench-report/v1.1";

  /// Report name; the file is written as BENCH_<name>.json.
  void set_name(std::string name) { name_ = std::move(name); }
  [[nodiscard]] const std::string& name() const { return name_; }

  void set_table(const Table& t) { table_ = t; }

  /// Attach a cluster run (measured or modeled) under a label like
  /// "bpart/pagerank/measured".
  void add_run(std::string label, cluster::RunReport report);
  void add_quality(std::string label, partition::QualityReport report);
  void add_pipeline(std::string label, pipeline::PipelineReport report);

  /// Free-form info entries ("title", "dataset_scale", "threads", ...).
  /// Re-adding a key replaces its value.
  void add_info(std::string key, std::string value);
  void add_info(std::string key, double value);

  void clear();

  /// Serialize, snapshotting the metrics registry at call time.
  [[nodiscard]] std::string to_json() const;

  /// Write BENCH_<name>.json into `dir`; returns the path written or "" on
  /// failure (logged).
  std::string write(const std::string& dir) const;

 private:
  void set_info(std::string key, std::variant<std::string, double> value);

  std::string name_ = "unnamed";
  std::optional<Table> table_;  ///< Table demands >= 1 column, so optional.
  std::vector<std::pair<std::string, cluster::RunReport>> runs_;
  std::vector<std::pair<std::string, partition::QualityReport>> quality_;
  std::vector<std::pair<std::string, pipeline::PipelineReport>> pipeline_;
  std::vector<std::pair<std::string, std::variant<std::string, double>>> info_;
};

}  // namespace bpart::obs
