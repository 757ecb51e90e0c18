// Experiment-scaling knobs shared by benches and tests.
//
// Every numeric knob parses the same way: unset gives the default; junk
// (anything std::from_chars does not consume whole, so "4x", "1e6", " 64"
// and "-1" all count) or a value below the knob's minimum warns and gives
// the default; a value above its maximum warns and clamps.
#pragma once

#include <cstdint>
#include <string>

namespace bpart {

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

/// Target edges per scheduler chunk of the exec core, read from
/// $BPART_EXEC_CHUNK on every call (default 4096, range [64, 2^22]).
std::uint32_t exec_chunk_edges();

/// Global reproducibility seed shared by the seeded partitioners (the
/// vertex-cut placers hash with it), read from $BPART_SEED on every call.
/// Default 17 — the historical seed of the vertex-cut family, kept so runs
/// without the knob reproduce previously recorded numbers. Any uint64
/// parses.
std::uint64_t global_seed();

/// Scoring-batch size of the buffered vertex-cut placers (hdrf-buffered),
/// read from $BPART_VCUT_BATCH on every call. Default 4096, range
/// [1, 2^24]. The batch size changes which pairs score against the same
/// frozen snapshot — so it may change the assignment — but for a fixed
/// batch size results are bit-identical across thread counts.
std::uint32_t vcut_batch();

/// Round-robin thread pinning switch, read from $BPART_PIN on every call.
/// "1"/"true"/"on" pins each worker thread of the exec-core pools and the
/// dist runtime to a fixed CPU (slot mod hardware_concurrency) at thread
/// start — hwloc-free NUMA/locality pinning that keeps first-touched pages
/// next to the thread that touched them. Anything else (or unset) leaves
/// scheduling to the OS.
bool pin_threads();

/// Vertex-relabeling mode the pipeline applies before partitioning, read
/// from $BPART_REORDER on every call: "none" (default), "degree", "bfs",
/// "random". Junk values warn and fall through to "none".
enum class ReorderMode : std::uint8_t { kNone, kDegree, kBfs, kRandom };
ReorderMode reorder_mode();

/// The knob string of a mode ("none"/"degree"/"bfs"/"random") — cache keys
/// and bench rows use it.
const char* reorder_mode_name(ReorderMode mode);

/// Default batch size of the buffered streaming partitioner, read from
/// $BPART_STREAM_BATCH on every call (default 0, range [0, 2^24]).
/// 0 means "sequential pass" — the knob is an opt-in, so existing callers
/// keep the exact classic streaming semantics unless the environment (or an
/// explicit StreamConfig::batch_size) says otherwise.
std::uint32_t stream_batch_size();

}  // namespace bpart
