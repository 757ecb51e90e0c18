#include "util/env.hpp"

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
    try {
      const double s = std::stod(env);
      if (s <= 0) {
        LOG_WARN << "BPART_SCALE must be positive, got " << env;
        return 1.0;
      }
      return s;
    } catch (const std::exception&) {
      LOG_WARN << "BPART_SCALE is not a number: " << env;
      return 1.0;
    }
  }();
  return scale;
}

unsigned thread_count(unsigned requested) {
  constexpr long kMaxThreads = 256;
  unsigned n = 0;
  if (const char* env = std::getenv("BPART_THREADS"); env != nullptr) {
    try {
      const long v = std::stol(env);
      if (v >= 1) {
        if (v > kMaxThreads)
          LOG_WARN << "BPART_THREADS=" << v << " clamped to " << kMaxThreads;
        n = static_cast<unsigned>(std::min(v, kMaxThreads));
      } else {
        LOG_WARN << "BPART_THREADS must be >= 1, got " << env;
      }
    } catch (const std::exception&) {
      LOG_WARN << "BPART_THREADS is not a number: " << env;
    }
  }
  if (n == 0) n = available_cpus();
  if (requested != 0) n = std::min(n, requested);
  return n;
}

unsigned exec_threads() {
  constexpr long kMaxThreads = 256;
  const char* env = std::getenv("BPART_EXEC_THREADS");
  if (env == nullptr) return 1;
  try {
    const long v = std::stol(env);
    if (v < 1) {
      LOG_WARN << "BPART_EXEC_THREADS must be >= 1, got " << env;
      return 1;
    }
    if (v > kMaxThreads) {
      LOG_WARN << "BPART_EXEC_THREADS=" << v << " clamped to " << kMaxThreads;
      return static_cast<unsigned>(kMaxThreads);
    }
    return static_cast<unsigned>(v);
  } catch (const std::exception&) {
    LOG_WARN << "BPART_EXEC_THREADS is not a number: " << env;
    return 1;
  }
}

std::uint32_t exec_chunk_edges() {
  constexpr std::uint32_t kDefault = 4096;
  constexpr long kMin = 64;
  constexpr long kMax = 1L << 22;
  const char* env = std::getenv("BPART_EXEC_CHUNK");
  if (env == nullptr) return kDefault;
  try {
    const long v = std::stol(env);
    if (v < kMin || v > kMax) {
      LOG_WARN << "BPART_EXEC_CHUNK=" << env << " outside [" << kMin << ", "
               << kMax << "], using " << kDefault;
      return kDefault;
    }
    return static_cast<std::uint32_t>(v);
  } catch (const std::exception&) {
    LOG_WARN << "BPART_EXEC_CHUNK is not a number: " << env;
    return kDefault;
  }
}

std::uint64_t dyn_budget() {
  constexpr std::uint64_t kDefault = 256;
  constexpr long long kMax = 1LL << 32;
  const char* env = std::getenv("BPART_DYN_BUDGET");
  if (env == nullptr) return kDefault;
  try {
    const long long v = std::stoll(env);
    if (v < 0) {
      LOG_WARN << "BPART_DYN_BUDGET must be >= 0, got " << env;
      return kDefault;
    }
    if (v > kMax) {
      LOG_WARN << "BPART_DYN_BUDGET=" << v << " clamped to " << kMax;
      return static_cast<std::uint64_t>(kMax);
    }
    return static_cast<std::uint64_t>(v);
  } catch (const std::exception&) {
    LOG_WARN << "BPART_DYN_BUDGET is not a number: " << env;
    return kDefault;
  }
}

std::uint32_t dyn_batch() {
  constexpr std::uint32_t kDefault = 4096;
  constexpr long kMax = 1L << 24;
  const char* env = std::getenv("BPART_DYN_BATCH");
  if (env == nullptr) return kDefault;
  try {
    const long v = std::stol(env);
    if (v < 1 || v > kMax) {
      LOG_WARN << "BPART_DYN_BATCH=" << env << " outside [1, " << kMax
               << "], using " << kDefault;
      return kDefault;
    }
    return static_cast<std::uint32_t>(v);
  } catch (const std::exception&) {
    LOG_WARN << "BPART_DYN_BATCH is not a number: " << env;
    return kDefault;
  }
}

std::uint64_t global_seed() {
  constexpr std::uint64_t kDefault = 17;
  const char* env = std::getenv("BPART_SEED");
  if (env == nullptr) return kDefault;
  // std::stoull silently wraps negative inputs to huge unsigned values;
  // reject them up front like every other knob here.
  if (std::string(env).find('-') != std::string::npos) {
    LOG_WARN << "BPART_SEED must be >= 0, got " << env;
    return kDefault;
  }
  try {
    return static_cast<std::uint64_t>(std::stoull(env));
  } catch (const std::exception&) {
    LOG_WARN << "BPART_SEED is not a number: " << env;
    return kDefault;
  }
}

std::uint32_t vcut_batch() {
  constexpr std::uint32_t kDefault = 4096;
  constexpr long kMax = 1L << 24;
  const char* env = std::getenv("BPART_VCUT_BATCH");
  if (env == nullptr) return kDefault;
  try {
    const long v = std::stol(env);
    if (v < 1 || v > kMax) {
      LOG_WARN << "BPART_VCUT_BATCH=" << env << " outside [1, " << kMax
               << "], using " << kDefault;
      return kDefault;
    }
    return static_cast<std::uint32_t>(v);
  } catch (const std::exception&) {
    LOG_WARN << "BPART_VCUT_BATCH is not a number: " << env;
    return kDefault;
  }
}

bool pin_threads() {
  const char* env = std::getenv("BPART_PIN");
  if (env == nullptr) return false;
  const std::string v(env);
  return v == "1" || v == "true" || v == "on";
}

ReorderMode reorder_mode() {
  const char* env = std::getenv("BPART_REORDER");
  if (env == nullptr) return ReorderMode::kNone;
  const std::string v(env);
  if (v == "none") return ReorderMode::kNone;
  if (v == "degree") return ReorderMode::kDegree;
  if (v == "bfs") return ReorderMode::kBfs;
  if (v == "random") return ReorderMode::kRandom;
  LOG_WARN << "BPART_REORDER must be none|degree|bfs|random, got " << env;
  return ReorderMode::kNone;
}

const char* reorder_mode_name(ReorderMode mode) {
  switch (mode) {
    case ReorderMode::kDegree: return "degree";
    case ReorderMode::kBfs: return "bfs";
    case ReorderMode::kRandom: return "random";
    case ReorderMode::kNone: break;
  }
  return "none";
}

std::uint32_t stream_batch_size() {
  constexpr long kMaxBatch = 1L << 24;
  const char* env = std::getenv("BPART_STREAM_BATCH");
  if (env == nullptr) return 0;
  try {
    const long v = std::stol(env);
    if (v < 0) {
      LOG_WARN << "BPART_STREAM_BATCH must be >= 0, got " << env;
      return 0;
    }
    if (v > kMaxBatch) {
      LOG_WARN << "BPART_STREAM_BATCH=" << v << " clamped to " << kMaxBatch;
      return static_cast<std::uint32_t>(kMaxBatch);
    }
    return static_cast<std::uint32_t>(v);
  } catch (const std::exception&) {
    LOG_WARN << "BPART_STREAM_BATCH is not a number: " << env;
    return 0;
  }
}

}  // namespace bpart
