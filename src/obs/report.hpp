// JSON serializers for the repo's measurement structs: cluster run reports
// (modeled and measured), partition quality stats, pipeline stage reports
// and metrics snapshots — one sink for everything a bench or tool wants to
// persist machine-readably.
//
// Deliberately reads only public data members of the serialized structs
// (totals are recomputed locally), so bpart_obs links against bpart_util
// alone and every other library — including cluster and partition — can
// link obs without a cycle.
#pragma once

#include <string>

#include "cluster/bsp.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "partition/metrics.hpp"
#include "pipeline/runner.hpp"
#include "util/stats.hpp"

namespace bpart::obs {

/// stats::Summary -> {"min":..,"max":..,"mean":..,"stddev":..,"bias":..,
/// "fairness":..,"n":..}
void write_summary(json::Writer& w, const stats::Summary& s);

/// cluster::RunReport -> {"num_machines":..,"totals":{...},
/// "iterations":[{"duration_seconds":..,"machines":[{...}]}]}.
/// The totals block mirrors RunReport's derived metrics (total_seconds,
/// wait_ratio, ...) so downstream plotting never recomputes them.
void write_run_report(json::Writer& w, const cluster::RunReport& r);
std::string run_report_json(const cluster::RunReport& r);

/// partition::QualityReport -> counts, summaries and edge-cut ratio.
void write_quality(json::Writer& w, const partition::QualityReport& q);

/// pipeline::PipelineReport -> per-stage seconds and cache-hit flags.
void write_pipeline_report(json::Writer& w, const pipeline::PipelineReport& r);

/// MetricsSnapshot -> {"counters":{name:value},
/// "latencies":{name:{count,sum_ns,max_ns,p50_ns,...,buckets:[[lo,count]]}}}
void write_metrics(json::Writer& w, const MetricsSnapshot& m);
std::string metrics_json(const MetricsSnapshot& m);

}  // namespace bpart::obs
