#include "obs/metrics.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "obs/report.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace bpart::obs {

namespace detail {

std::size_t stripe_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricStripes;
  return idx;
}

}  // namespace detail

namespace {

struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      latencies;
};

void dump_metrics_at_exit();

/// Intentionally leaked: atexit dumps and stray late-thread writes must
/// outlive static destruction.
Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry;
    if (const char* env = std::getenv("BPART_METRICS");
        env != nullptr && *env != '\0') {
      std::atexit(dump_metrics_at_exit);
    }
    return reg;
  }();
  return *r;
}

void dump_metrics_at_exit() {
  const char* env = std::getenv("BPART_METRICS");
  if (env == nullptr || *env == '\0') return;
  const std::string out = metrics_json(metrics_snapshot());
  if (std::string_view(env) == "-") {
    std::fprintf(stderr, "%s\n", out.c_str());
    return;
  }
  const std::string path = expand_path_pattern(env);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "[obs] cannot write BPART_METRICS file %s\n",
                 path.c_str());
    return;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

template <typename Map, typename Make>
auto& find_or_create(Map& map, std::mutex& mu, std::string_view name,
                     Make&& make) {
  std::lock_guard<std::mutex> lock(mu);
  const auto it = map.find(name);
  if (it != map.end()) return *it->second;
  auto handle = make(std::string(name));
  auto& ref = *handle;
  map.emplace(std::string(name), std::move(handle));
  return ref;
}

}  // namespace

Counter& counter(std::string_view name) {
  Registry& r = registry();
  return find_or_create(r.counters, r.mu, name, [](std::string n) {
    return std::make_unique<Counter>(std::move(n));
  });
}

LatencyHistogram& latency(std::string_view name) {
  Registry& r = registry();
  return find_or_create(r.latencies, r.mu, name, [](std::string n) {
    return std::make_unique<LatencyHistogram>(std::move(n));
  });
}

LogHistogram LatencyHistogram::to_log_histogram() const {
  LogHistogram h;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = buckets_[b].load(std::memory_order_relaxed);
    if (c == 0) continue;
    // Bucket b holds [2^(b-1), 2^b); its LogHistogram bucket is b-1 (zeros
    // land in LogHistogram bucket 0 alongside the ones).
    h.add(b == 0 ? 0 : (std::uint64_t{1} << (b - 1)), c);
  }
  return h;
}

std::uint64_t ScopedLatency::now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedLatency::~ScopedLatency() {
  const std::uint64_t t1 = now_ns();
  h_.record_ns(t1 >= t0_ ? t1 - t0_ : 0);
}

MetricsSnapshot metrics_snapshot() {
  Registry& r = registry();
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(r.mu);
  snap.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters)
    snap.counters.push_back({name, c->value()});
  snap.latencies.reserve(r.latencies.size());
  for (const auto& [name, l] : r.latencies) {
    MetricsSnapshot::LatencySample s;
    s.name = name;
    s.count = l->count();
    s.sum_ns = l->sum_ns();
    s.max_ns = l->max_ns();
    s.hist = l->to_log_histogram();
    s.p50_ns = s.hist.quantile(0.50);
    s.p90_ns = s.hist.quantile(0.90);
    s.p99_ns = s.hist.quantile(0.99);
    snap.latencies.push_back(std::move(s));
  }
  return snap;
}

void metrics_reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) c->reset();
  for (auto& [name, l] : r.latencies) l->reset();
}

}  // namespace bpart::obs
