// Process-wide metrics registry: counters and log-scale latency histograms,
// aggregated on demand into a typed snapshot.
//
// Hot-path writes never take the registry lock: counters and latency
// histograms fan increments out over cache-line-padded atomic stripes
// (relaxed memory order — per-stripe totals, no ordering needed), so
// concurrent writers from the ingest pool, the dist runtime's machine
// threads and the partitioner all record without contention. Handle lookup
// (obs::counter("ingest.edges")) is a mutex-guarded map probe; hot callers
// cache the returned reference in a function-local static. Handles are
// never invalidated — the registry leaks intentionally so atexit dumps and
// late thread writes stay safe.
//
// $BPART_METRICS=<path> dumps a JSON snapshot of every metric at process
// exit ("-" writes to stderr). See obs/report.hpp for the schema.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.hpp"

namespace bpart::obs {

inline constexpr std::size_t kMetricStripes = 16;

namespace detail {
/// Round-robin stripe assignment, cached per thread: spreads writers
/// uniformly instead of hashing thread ids.
std::size_t stripe_index() noexcept;

struct alignas(64) StripedCell {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

/// Monotonic counter. add() is lock-free; value() sums the stripes (a
/// racing read sees some valid partial total — exact once writers quiesce).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    cells_[detail::stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  [[nodiscard]] const std::string& name() const { return name_; }

  void reset() noexcept {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::array<detail::StripedCell, kMetricStripes> cells_;
};

/// Log2-bucketed latency recorder in nanoseconds: bucket b holds samples in
/// [2^(b-1), 2^b) (bucket 0 holds zeros). Aggregates into the repo's
/// LogHistogram for rendering and quantiles.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 65;  ///< bit_width of a uint64.

  explicit LatencyHistogram(std::string name) : name_(std::move(name)) {}
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void record_ns(std::uint64_t ns) noexcept {
    buckets_[std::bit_width(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t cur = max_ns_.load(std::memory_order_relaxed);
    while (ns > cur && !max_ns_.compare_exchange_weak(
                           cur, ns, std::memory_order_relaxed)) {
    }
  }
  void record_seconds(double s) noexcept {
    record_ns(s <= 0 ? 0 : static_cast<std::uint64_t>(s * 1e9));
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
  }
  [[nodiscard]] std::uint64_t sum_ns() const noexcept {
    return sum_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_ns() const noexcept {
    return max_ns_.load(std::memory_order_relaxed);
  }

  /// Snapshot into the shared LogHistogram shape (bucket i = [2^i, 2^(i+1)),
  /// zeros into bucket 0) for render() / quantile().
  [[nodiscard]] LogHistogram to_log_histogram() const;

  [[nodiscard]] const std::string& name() const { return name_; }

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    max_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// RAII latency sample: records the scope's duration on destruction.
class ScopedLatency {
 public:
  explicit ScopedLatency(LatencyHistogram& h) : h_(h) {}
  ~ScopedLatency();
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  LatencyHistogram& h_;
  std::uint64_t t0_ = now_ns();
  static std::uint64_t now_ns() noexcept;
};

/// Registry lookups: find-or-create by name. The returned reference is
/// valid for the life of the process.
Counter& counter(std::string_view name);
LatencyHistogram& latency(std::string_view name);

/// Aggregated point-in-time view of every registered metric, sorted by
/// name. Safe to take while writers are running (values are then merely a
/// consistent-enough partial view).
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct LatencySample {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t max_ns = 0;
    double p50_ns = 0;
    double p90_ns = 0;
    double p99_ns = 0;
    LogHistogram hist;
  };

  std::vector<CounterSample> counters;
  std::vector<LatencySample> latencies;
};

MetricsSnapshot metrics_snapshot();

/// Zero every registered metric (tests; the registry itself is retained so
/// cached handle references stay valid).
void metrics_reset();

}  // namespace bpart::obs
