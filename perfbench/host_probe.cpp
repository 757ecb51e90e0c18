// Host ceilings recorded with every traced result set: streaming read
// bandwidth at one thread and at `threads` threads over an array at least
// four times the last-level cache, and the scaling of a fixed per-thread
// ALU loop. Layer throughputs are printed as fractions of these.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kMiB = std::uint64_t{1} << 20;
constexpr int kPasses = 3;  // Best of: the ceiling is the fastest pass.

/// Consumes a value so the compiler cannot drop the loop that made it.
std::atomic<std::uint64_t> g_sink{0};

std::uint64_t read_words(const std::uint64_t* p, std::size_t n) {
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a += p[i];
    b += p[i + 1];
    c += p[i + 2];
    d += p[i + 3];
  }
  for (; i < n; ++i) a += p[i];
  return a + b + c + d;
}

std::uint64_t alu_loop(std::uint64_t seed, std::uint64_t iters) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x9E3779B97F4A7C15ULL;
  }
  return x;
}

/// Wall seconds of running `body(t)` on `threads` threads released together.
template <typename Body>
double timed_parallel(unsigned threads, Body&& body) {
  std::barrier start(static_cast<std::ptrdiff_t>(threads) + 1);
  std::barrier stop(static_cast<std::ptrdiff_t>(threads) + 1);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      start.arrive_and_wait();
      body(t);
      stop.arrive_and_wait();
    });
  start.arrive_and_wait();
  bpart::Timer timer;
  stop.arrive_and_wait();
  const double s = timer.seconds();
  for (auto& th : pool) th.join();
  return s;
}

std::uint64_t last_level_cache_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 32 * kMiB;  // Unreported: assume a large server LLC.
}

}  // namespace

HostCeilings probe_host(unsigned threads) {
  HostCeilings h;
  h.threads = std::max(1u, threads);
  h.llc_bytes = last_level_cache_bytes();
  // 4x the LLC so the reads stream from DRAM; bounded to keep the probe
  // small on hosts that report a very large shared cache.
  h.array_bytes = std::clamp<std::uint64_t>(4 * h.llc_bytes, 64 * kMiB,
                                            2048 * kMiB);
  const std::size_t words = h.array_bytes / sizeof(std::uint64_t);
  const std::size_t slice = (words + h.threads - 1) / h.threads;
  auto slice_of = [&](unsigned t) {
    const std::size_t begin = std::min(words, t * slice);
    return std::pair{begin, std::min(words, begin + slice)};
  };
  std::vector<std::uint64_t> data(words);
  // Fault every page in before timing; each reader then writes its slice.
  timed_parallel(h.threads, [&](unsigned t) {
    const auto [b, e] = slice_of(t);
    for (std::size_t i = b; i < e; ++i) data[i] = i;
  });

  const double gb = static_cast<double>(h.array_bytes) / 1e9;
  double best_1t = 1e30, best_nt = 1e30;
  for (int pass = 0; pass < kPasses; ++pass) {
    best_1t = std::min(best_1t, timed_parallel(1, [&](unsigned) {
      g_sink += read_words(data.data(), words);
    }));
    best_nt = std::min(best_nt, timed_parallel(h.threads, [&](unsigned t) {
      const auto [b, e] = slice_of(t);
      g_sink += read_words(data.data() + b, e - b);
    }));
  }
  h.read_gbps_1t = gb / best_1t;
  h.read_gbps_nt = gb / best_nt;

  constexpr std::uint64_t kAluIters = 100'000'000;
  double alu_1t = 1e30, alu_nt = 1e30;
  for (int pass = 0; pass < kPasses; ++pass) {
    alu_1t = std::min(alu_1t, timed_parallel(1, [&](unsigned t) {
      g_sink += alu_loop(t + 1, kAluIters);
    }));
    alu_nt = std::min(alu_nt, timed_parallel(h.threads, [&](unsigned t) {
      g_sink += alu_loop(t + 1, kAluIters);
    }));
  }
  h.alu_scaling = static_cast<double>(h.threads) * alu_1t / alu_nt;
  return h;
}

}  // namespace perfbench
