#include "util/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace bpart {

void LogHistogram::add(std::uint64_t x, std::uint64_t count) {
  const std::size_t bucket =
      x == 0 ? 0 : static_cast<std::size_t>(std::bit_width(x) - 1);
  if (bucket >= counts_.size()) counts_.resize(bucket + 1, 0);
  counts_[bucket] += count;
  total_ += count;
}

std::uint64_t LogHistogram::bucket_count(std::size_t i) const {
  return i < counts_.size() ? counts_[i] : 0;
}

std::string LogHistogram::render(std::size_t width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar =
        static_cast<std::size_t>(static_cast<double>(counts_[i]) /
                                 static_cast<double>(peak) *
                                 static_cast<double>(width));
    os << "[2^" << i << ", 2^" << (i + 1) << ") " << std::string(bar, '#')
       << " " << counts_[i] << "\n";
  }
  return os.str();
}

double LogHistogram::quantile(double q) const {
  BPART_CHECK(q >= 0.0 && q <= 1.0);
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  double cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double hi = std::ldexp(1.0, static_cast<int>(i + 1));
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  // Unreachable with total_ > 0; return the top edge for safety.
  return std::ldexp(1.0, static_cast<int>(counts_.size()));
}

double LogHistogram::log_log_slope() const {
  // Simple least squares over (i, log2(count_i)) for non-empty buckets;
  // bucket index i is already log2(degree).
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double x = static_cast<double>(i);
    const double y = std::log2(static_cast<double>(counts_[i]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) return 0.0;
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (dn * sxy - sx * sy) / denom;
}

}  // namespace bpart
