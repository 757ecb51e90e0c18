#include "util/env.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>

#include <unistd.h>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/logging.hpp"

namespace bpart {

namespace {

/// Upper bound of the thread-count knobs.
constexpr std::uint64_t kMaxThreads = 256;

/// CPUs in the calling thread's affinity mask (what `nproc` prints), else
/// std::thread::hardware_concurrency(), else 1.
unsigned available_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

/// The one parse path of the integer knobs (rule in env.hpp): unset gives
/// `fallback`; junk or a value below `lo` warns and gives `fallback`; a
/// value above `hi` warns and clamps to `hi`.
std::uint64_t int_knob(const char* name, std::uint64_t fallback,
                       std::uint64_t lo, std::uint64_t hi) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  std::uint64_t v = 0;
  const std::errc ec = parse_whole(env, v);
  if (ec == std::errc::invalid_argument) {
    LOG_WARN << name << " is not a number: \"" << env << "\", using "
             << fallback;
    return fallback;
  }
  if (ec == std::errc::result_out_of_range || v > hi) {
    LOG_WARN << name << "=" << env << " clamped to " << hi;
    return hi;
  }
  if (v < lo) {
    LOG_WARN << name << " must be >= " << lo << ", got " << env << ", using "
             << fallback;
    return fallback;
  }
  return v;
}

}  // namespace

std::string expand_path_pattern(std::string_view path) {
  std::string out;
  out.reserve(path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] != '%' || i + 1 >= path.size()) {
      out.push_back(path[i]);
      continue;
    }
    const char next = path[i + 1];
    if (next == 'p') {
      out += std::to_string(static_cast<long>(::getpid()));
      ++i;
    } else if (next == '%') {
      out.push_back('%');
      ++i;
    } else {
      out.push_back('%');  // unknown escape passes through verbatim
    }
  }
  return out;
}

double dataset_scale() {
  static const double scale = [] {
    const char* env = std::getenv("BPART_SCALE");
    if (env == nullptr) return 1.0;
    double s = 0;
    if (parse_whole(env, s) != std::errc() || !std::isfinite(s) || s <= 0) {
      LOG_WARN << "BPART_SCALE must be a positive number, got \"" << env
               << "\", using 1";
      return 1.0;
    }
    return s;
  }();
  return scale;
}

unsigned thread_count(unsigned requested) {
  auto n = static_cast<unsigned>(
      int_knob("BPART_THREADS", available_cpus(), 1, kMaxThreads));
  if (requested != 0) n = std::min(n, requested);
  return n;
}

unsigned exec_threads() {
  return static_cast<unsigned>(
      int_knob("BPART_EXEC_THREADS", 1, 1, kMaxThreads));
}

}  // namespace bpart
