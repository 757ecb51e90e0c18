// Experiment-scaling knobs shared by benches and tests, and the number
// parser they share with the bench flags (util/options.hpp).
//
// Every numeric knob parses the same way: unset gives the default; junk
// (anything parse_whole rejects, so "4x", "1e6", " 64" and "-1" all count)
// or a value below the knob's minimum warns and gives the default; a value
// above its maximum warns and clamps.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

namespace bpart {

/// Parse all of `text` as a T with std::from_chars — the one number parser
/// of the env knobs and the bench flags. Returns std::errc{} and sets `out`
/// on success; std::errc::invalid_argument when from_chars does not
/// consume the whole string ("4x", " 64", "+64", "0x40" and, for an integer
/// T, "1e6" and "-1" into an unsigned); std::errc::result_out_of_range for
/// a whole number that does not fit in T. `out` is untouched on failure.
template <typename T>
std::errc parse_whole(std::string_view text, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::invalid_argument || ptr != end)
    return std::errc::invalid_argument;
  if (ec == std::errc()) out = v;
  return ec;
}

/// Expand dump-path patterns: every "%p" in `path` becomes the PID and
/// "%%" an escaped literal '%'. Applied to $BPART_TRACE / $BPART_METRICS /
/// $BPART_TIMELINE so parallel `ctest -j` and multi-process runs write
/// per-process files instead of clobbering one another.
std::string expand_path_pattern(std::string_view path);

/// Global dataset scale multiplier, read once from $BPART_SCALE (default 1.0;
/// anything but a whole finite number > 0 warns and gives the default).
/// Benches multiply synthetic dataset sizes by this so the same binaries can
/// run a quick CI pass (scale 1) or a paper-scale sweep (scale >= 10).
double dataset_scale();

/// Worker threads to use for parallel sections: $BPART_THREADS when set
/// (range [1, 256]), else the CPUs the calling thread may run on (its
/// affinity mask, as `nproc` counts them, so `taskset -c 0` means 1), else
/// std::thread::hardware_concurrency() when the mask cannot be read or off
/// Linux, else 1. A nonzero `requested` caps the result — executors pass
/// the natural parallelism of their job (e.g. one thread per simulated
/// machine) so a small override serializes onto fewer OS threads instead
/// of oversubscribing. Re-reads the environment on every call (it is only
/// consulted at run setup) so tests can override.
unsigned thread_count(unsigned requested = 0);

/// Worker threads of the intra-machine exec core (src/exec/), read from
/// $BPART_EXEC_THREADS on every call. Default 1 (inline execution), range
/// [1, 256]. Results do not depend on it, only speed does.
unsigned exec_threads();

}  // namespace bpart
