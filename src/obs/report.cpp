#include "obs/report.hpp"

#include <cstdint>

namespace bpart::obs {

void write_summary(json::Writer& w, const stats::Summary& s) {
  w.begin_object()
      .kv("min", s.min)
      .kv("max", s.max)
      .kv("mean", s.mean)
      .kv("stddev", s.stddev)
      .kv("bias", s.bias)
      .kv("fairness", s.fairness)
      .kv("n", static_cast<std::uint64_t>(s.n))
      .end_object();
}

void write_run_report(json::Writer& w, const cluster::RunReport& r) {
  // Totals recomputed from the raw rows (mirrors RunReport's methods; kept
  // local so bpart_obs does not link bpart_cluster).
  double total_seconds = 0;
  double total_wait = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_work = 0;
  std::uint64_t total_bytes_sent = 0;
  for (const auto& it : r.iterations) {
    total_seconds += it.duration_seconds;
    for (const auto& m : it.machines) {
      total_wait += m.wait_seconds;
      total_messages += m.messages_sent;
      total_work += m.work_items;
      total_bytes_sent += m.bytes_sent;
    }
  }
  const double wait_ratio =
      (total_seconds > 0 && r.num_machines > 0)
          ? total_wait / (static_cast<double>(r.num_machines) * total_seconds)
          : 0.0;

  w.begin_object();
  w.kv("num_machines", static_cast<std::uint64_t>(r.num_machines));
  w.key("totals")
      .begin_object()
      .kv("seconds", total_seconds)
      .kv("wait_seconds", total_wait)
      .kv("wait_ratio", wait_ratio)
      .kv("messages", total_messages)
      .kv("work", total_work)
      .kv("bytes_sent", total_bytes_sent)
      .kv("iterations", static_cast<std::uint64_t>(r.iterations.size()))
      .end_object();
  w.key("iterations").begin_array();
  for (const auto& it : r.iterations) {
    w.begin_object();
    w.kv("duration_seconds", it.duration_seconds);
    w.key("machines").begin_array();
    for (const auto& m : it.machines) {
      w.begin_object()
          .kv("work_items", m.work_items)
          .kv("messages_sent", m.messages_sent)
          .kv("messages_received", m.messages_received)
          .kv("bytes_sent", m.bytes_sent)
          .kv("bytes_received", m.bytes_received)
          .kv("compute_seconds", m.compute_seconds)
          .kv("comm_seconds", m.comm_seconds)
          .kv("wait_seconds", m.wait_seconds)
          .end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string run_report_json(const cluster::RunReport& r) {
  json::Writer w;
  write_run_report(w, r);
  return w.str();
}

void write_quality(json::Writer& w, const partition::QualityReport& q) {
  w.begin_object();
  w.key("vertex_counts").begin_array();
  for (const std::uint64_t c : q.vertex_counts) w.value(c);
  w.end_array();
  w.key("edge_counts").begin_array();
  for (const std::uint64_t c : q.edge_counts) w.value(c);
  w.end_array();
  w.key("vertex_summary");
  write_summary(w, q.vertex_summary);
  w.key("edge_summary");
  write_summary(w, q.edge_summary);
  w.kv("edge_cut_ratio", q.edge_cut_ratio);
  w.end_object();
}

void write_pipeline_report(json::Writer& w, const pipeline::PipelineReport& r) {
  w.begin_object();
  w.key("ingest")
      .begin_object()
      .kv("seconds", r.ingest.seconds)
      .kv("bytes", static_cast<std::uint64_t>(r.ingest.bytes))
      .kv("edges", static_cast<std::uint64_t>(r.ingest.edges))
      .kv("threads", r.ingest.threads)
      .kv("shards", r.ingest.shards)
      .end_object();
  w.kv("build_seconds", r.build_seconds);
  w.kv("partition_seconds", r.partition_seconds);
  w.kv("cache_seconds", r.cache_seconds);
  w.kv("graph_cache_hit", r.graph_cache_hit);
  w.kv("partition_cache_hit", r.partition_cache_hit);
  w.kv("vertices", static_cast<std::uint64_t>(r.vertices));
  w.kv("edges", static_cast<std::uint64_t>(r.edges));
  w.key("degree_summary");
  write_summary(w, r.degree_summary);
  w.end_object();
}

void write_metrics(json::Writer& w, const MetricsSnapshot& m) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& c : m.counters) w.kv(c.name, c.value);
  w.end_object();
  w.key("latencies").begin_object();
  for (const auto& l : m.latencies) {
    w.key(l.name).begin_object();
    w.kv("count", l.count);
    w.kv("sum_ns", l.sum_ns);
    w.kv("max_ns", l.max_ns);
    w.kv("p50_ns", l.p50_ns);
    w.kv("p90_ns", l.p90_ns);
    w.kv("p99_ns", l.p99_ns);
    // Sparse log2 buckets: [bucket_lo, count] for non-empty buckets only.
    w.key("buckets").begin_array();
    for (std::size_t b = 0; b < l.hist.buckets(); ++b) {
      const std::uint64_t c = l.hist.bucket_count(b);
      if (c == 0) continue;
      w.begin_array().value(std::uint64_t{1} << b).value(c).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

std::string metrics_json(const MetricsSnapshot& m) {
  json::Writer w;
  write_metrics(w, m);
  return w.str();
}

}  // namespace bpart::obs
