// Structured per-superstep × per-machine × per-worker timeline recorder.
//
// Where the span tracer answers "what ran when" and the metrics registry
// answers "how much in total", the timeline answers the paper's waiting-time
// question: for every BSP superstep, which machine gated the barrier, how
// the superstep's wall time splits into compute / communication / barrier
// wait per machine, and how many bytes crossed each (src, dst) channel.
// The dist runtime feeds it per-superstep rows (gating machine identified
// in the barrier completion phase) and the exec core contributes per-worker
// chunk-duration reservoir samples and steal counts. obs/attrib.hpp turns
// the recorded runs into a critical-path attribution; scripts/bpart_prof.py
// does the same offline on the exported artifact.
//
// Enablement mirrors the span tracer's discipline: set
// $BPART_TIMELINE=<path> ("%p" expands to the PID) and a
// `bpart-timeline/v1` JSON artifact is written at process exit, or call
// timeline_start()/timeline_stop() programmatically. When off, every
// recording entry point is one relaxed atomic load and a branch — cheap
// enough to sit inside the barrier completion phase permanently.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/bsp.hpp"

namespace bpart::obs {

namespace timeline_detail {
inline constexpr int kTimelineUninit = -1;
inline constexpr int kTimelineOff = 0;
inline constexpr int kTimelineOn = 1;
extern std::atomic<int> g_timeline_state;
/// Resolves $BPART_TIMELINE once; returns the resulting state.
int timeline_init_from_env() noexcept;
}  // namespace timeline_detail

/// Fast gate; first call resolves $BPART_TIMELINE.
inline bool timeline_enabled() noexcept {
  const int s =
      timeline_detail::g_timeline_state.load(std::memory_order_acquire);
  if (s != timeline_detail::kTimelineUninit)
    return s == timeline_detail::kTimelineOn;
  return timeline_detail::timeline_init_from_env() ==
         timeline_detail::kTimelineOn;
}

// ---------------------------------------------------------------------------
// Data model (also the JSON artifact's shape; see timeline_to_json).

struct TimelineMachineRow {
  std::uint32_t machine = 0;
  /// Worker thread that drove this machine's compute — machines sharing a
  /// worker serialize, which the attribution pass must know to reconcile
  /// charged time against wall time when threads < machines.
  std::uint32_t worker = 0;
  double compute_seconds = 0;
  double comm_seconds = 0;
  double wait_seconds = 0;
  std::uint64_t work = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

struct TimelineSuperstep {
  std::uint32_t index = 0;
  double duration_seconds = 0;  ///< Barrier-to-barrier wall time.
  /// argmax compute machine, identified in the barrier completion phase.
  std::uint32_t gating_machine = 0;
  std::vector<TimelineMachineRow> machines;
  /// machines × machines payload bytes, row-major (src * k + dst); sends
  /// queued during this superstep. Diagonal = local deliveries.
  std::vector<std::uint64_t> channel_bytes;
};

struct TimelineRun {
  std::uint64_t id = 0;
  std::string label;
  std::uint32_t machines = 0;
  std::vector<TimelineSuperstep> supersteps;
};

/// Aggregated exec-core stats per worker index (across all Executor runs
/// while the timeline was on): chunk/steal counts, busy seconds, and a
/// fixed-size reservoir of individual chunk durations for skew analysis.
struct TimelineWorkerStats {
  std::uint32_t worker = 0;
  std::uint64_t chunks = 0;
  std::uint64_t steals = 0;
  double busy_seconds = 0;
  std::vector<double> sample_seconds;
};

struct TimelineData {
  std::vector<TimelineRun> runs;
  std::vector<TimelineWorkerStats> workers;
  std::uint64_t dropped_runs = 0;
};

// ---------------------------------------------------------------------------
// Recording API (all entry points no-op when the timeline is off).

/// Scoped run label: while alive, runs begun on this thread are tagged with
/// `label` (e.g. "hash/pagerank/measured"). Nested scopes stack; unlabeled
/// runs fall back to "run#<id>".
class ScopedTimelineLabel {
 public:
  explicit ScopedTimelineLabel(std::string label);
  ~ScopedTimelineLabel();
  ScopedTimelineLabel(const ScopedTimelineLabel&) = delete;
  ScopedTimelineLabel& operator=(const ScopedTimelineLabel&) = delete;

 private:
  bool pushed_ = false;
};

/// Open a run; returns its id, or 0 when the timeline is off. Called by
/// dist::Runtime at run entry on the launching thread (so the ambient
/// ScopedTimelineLabel is in scope).
std::uint64_t timeline_begin_run(std::uint32_t machines);

/// Commit a finished run: converts the measured report plus the
/// completion-phase side records into timeline rows. `gating[s]` is the
/// superstep's argmax-compute machine, `channel_bytes[s]` the machines²
/// byte matrix (may be empty), `machine_worker[m]` the worker thread that
/// drove machine m.
void timeline_commit_run(std::uint64_t run, const cluster::RunReport& report,
                         const std::vector<std::uint32_t>& gating,
                         std::vector<std::vector<std::uint64_t>> channel_bytes,
                         const std::vector<std::uint32_t>& machine_worker);

/// Merge one exec-core worker's accumulated stats (called by Executor at
/// the end of a run; samples beyond the per-worker reservoir capacity
/// replace existing slots pseudo-randomly).
void timeline_record_exec(std::uint32_t worker, std::uint64_t chunks,
                          std::uint64_t steals, double busy_seconds,
                          const std::vector<double>& samples);

// ---------------------------------------------------------------------------
// Control & export.

/// Enable recording; the artifact is written to `path` ("%p" → PID) by
/// timeline_stop() / timeline_flush() / process exit.
void timeline_start(const std::string& path);

/// Write the artifact to the configured path and keep recording. Returns
/// the path written, or "" if the timeline is off / the write failed.
std::string timeline_flush();

/// Flush, then disable and clear all recorded data.
std::string timeline_stop();

/// Copy of everything recorded so far (tests, in-process attribution).
TimelineData timeline_snapshot();

/// Serialize to the bpart-timeline/v1 JSON schema.
std::string timeline_to_json(const TimelineData& data);

}  // namespace bpart::obs
