// Logarithmic histogram.
//
// Used for degree-distribution reporting (the scale-free property that
// motivates the paper) and for the latency histograms' quantiles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bpart {

/// Log2-bucketed histogram for heavy-tailed data (vertex degrees).
/// Bucket i holds samples in [2^i, 2^(i+1)); bucket 0 additionally holds 0.
class LogHistogram {
 public:
  void add(std::uint64_t x, std::uint64_t count = 1);

  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const;
  [[nodiscard]] std::size_t buckets() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::string render(std::size_t width = 50) const;

  /// Approximate quantile: linear interpolation inside the log2 bucket
  /// [2^i, 2^(i+1)) (bucket 0 spans [0, 2)). Used by the observability
  /// layer's latency histograms for p50/p99 reporting.
  [[nodiscard]] double quantile(double q) const;

  /// Least-squares slope of log(count) vs log(degree) over non-empty
  /// buckets — a quick power-law-exponent estimate used by generator tests.
  [[nodiscard]] double log_log_slope() const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace bpart
