#include "obs/timeline.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <utility>

#include <unistd.h>

#include "obs/json.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace bpart::obs {

namespace timeline_detail {
std::atomic<int> g_timeline_state{kTimelineUninit};
}  // namespace timeline_detail

namespace {

using timeline_detail::g_timeline_state;
using timeline_detail::kTimelineOff;
using timeline_detail::kTimelineOn;
using timeline_detail::kTimelineUninit;

/// Backstops against unbounded growth on pathological runs; drops are
/// counted and reported in the artifact.
constexpr std::size_t kMaxRuns = 4096;
constexpr std::size_t kMaxSuperstepsPerRun = std::size_t{1} << 16;
constexpr std::size_t kMaxWorkerSamples = 64;

struct TimelineState {
  std::mutex mu;
  TimelineData data;
  std::string path;
  std::uint64_t next_run_id = 1;
  /// Runs begun but not yet committed: only their ids are live; begin
  /// assigns, commit appends — so concurrent runs commit in finish order.
  bool atexit_registered = false;
};

/// Intentionally leaked (atexit + late thread-exit safety, same as the
/// trace and metrics registries).
TimelineState& state() {
  static TimelineState* s = new TimelineState;
  return *s;
}

thread_local std::vector<std::string>* t_label_stack = nullptr;

std::vector<std::string>& label_stack() {
  thread_local std::vector<std::string> stack;
  t_label_stack = &stack;
  return stack;
}

void write_timeline_at_exit() { timeline_flush(); }

void enable(const std::string& path) {
  TimelineState& st = state();
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.path = expand_path_pattern(path);
    if (!st.atexit_registered) {
      std::atexit(write_timeline_at_exit);
      st.atexit_registered = true;
    }
  }
  g_timeline_state.store(kTimelineOn, std::memory_order_release);
}

TimelineRun* find_run(TimelineState& st, std::uint64_t id) {
  // Runs commit in finish order, not id order; linear scan from the back
  // finds the run being committed, one of the most recently begun.
  for (auto it = st.data.runs.rbegin(); it != st.data.runs.rend(); ++it)
    if (it->id == id) return &*it;
  return nullptr;
}

}  // namespace

namespace timeline_detail {

int timeline_init_from_env() noexcept {
  // Races are benign: both threads resolve the same environment.
  const char* env = std::getenv("BPART_TIMELINE");
  if (env != nullptr && *env != '\0') {
    enable(env);
    return kTimelineOn;
  }
  int expected = kTimelineUninit;
  g_timeline_state.compare_exchange_strong(expected, kTimelineOff,
                                           std::memory_order_acq_rel);
  return g_timeline_state.load(std::memory_order_acquire);
}

}  // namespace timeline_detail

// ---------------------------------------------------------------------------
// Recording.

ScopedTimelineLabel::ScopedTimelineLabel(std::string label) {
  if (!timeline_enabled()) return;
  label_stack().push_back(std::move(label));
  pushed_ = true;
}

ScopedTimelineLabel::~ScopedTimelineLabel() {
  if (pushed_ && t_label_stack != nullptr && !t_label_stack->empty())
    t_label_stack->pop_back();
}

std::uint64_t timeline_begin_run(std::uint32_t machines) {
  if (!timeline_enabled()) return 0;
  TimelineState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  if (st.data.runs.size() >= kMaxRuns) {
    ++st.data.dropped_runs;
    return 0;
  }
  const std::uint64_t id = st.next_run_id++;
  TimelineRun run;
  run.id = id;
  run.machines = machines;
  const auto& stack = label_stack();
  run.label = stack.empty() ? "run#" + std::to_string(id) : stack.back();
  st.data.runs.push_back(std::move(run));
  return id;
}

void timeline_commit_run(std::uint64_t run, const cluster::RunReport& report,
                         const std::vector<std::uint32_t>& gating,
                         std::vector<std::vector<std::uint64_t>> channel_bytes,
                         const std::vector<std::uint32_t>& machine_worker) {
  if (run == 0 ||
      g_timeline_state.load(std::memory_order_acquire) != kTimelineOn)
    return;
  TimelineState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  TimelineRun* r = find_run(st, run);
  if (r == nullptr) return;  // begun before a stop() cleared the data
  const std::size_t steps =
      std::min(report.iterations.size(), kMaxSuperstepsPerRun);
  r->supersteps.reserve(steps);
  for (std::size_t s = 0; s < steps; ++s) {
    const cluster::IterationReport& it = report.iterations[s];
    TimelineSuperstep row;
    row.index = static_cast<std::uint32_t>(s);
    row.duration_seconds = it.duration_seconds;
    row.gating_machine = s < gating.size() ? gating[s] : 0;
    if (s < channel_bytes.size())
      row.channel_bytes = std::move(channel_bytes[s]);
    row.machines.reserve(it.machines.size());
    for (std::size_t m = 0; m < it.machines.size(); ++m) {
      const cluster::MachineIterationStats& ms = it.machines[m];
      TimelineMachineRow mr;
      mr.machine = static_cast<std::uint32_t>(m);
      mr.worker = m < machine_worker.size() ? machine_worker[m]
                                            : static_cast<std::uint32_t>(m);
      mr.compute_seconds = ms.compute_seconds;
      mr.comm_seconds = ms.comm_seconds;
      mr.wait_seconds = ms.wait_seconds;
      mr.work = ms.work_items;
      mr.sent = ms.messages_sent;
      mr.received = ms.messages_received;
      mr.bytes_sent = ms.bytes_sent;
      mr.bytes_received = ms.bytes_received;
      row.machines.push_back(std::move(mr));
    }
    r->supersteps.push_back(std::move(row));
  }
}

void timeline_record_exec(std::uint32_t worker, std::uint64_t chunks,
                          std::uint64_t steals, double busy_seconds,
                          const std::vector<double>& samples) {
  if (!timeline_enabled()) return;
  TimelineState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  auto& workers = st.data.workers;
  TimelineWorkerStats* w = nullptr;
  for (auto& ws : workers)
    if (ws.worker == worker) w = &ws;
  if (w == nullptr) {
    workers.emplace_back();
    w = &workers.back();
    w->worker = worker;
  }
  // Chunks seen before this batch — drives the merged reservoir's
  // replacement positions so early and late batches stay represented.
  const std::uint64_t seen = w->chunks;
  w->chunks += chunks;
  w->steals += steals;
  w->busy_seconds += busy_seconds;
  std::uint64_t x = seen + worker * 0x9E3779B97F4A7C15ULL + 1;
  for (const double s : samples) {
    if (w->sample_seconds.size() < kMaxWorkerSamples) {
      w->sample_seconds.push_back(s);
      continue;
    }
    // xorshift64* slot choice: cheap, deterministic per (worker, seen).
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    w->sample_seconds[(x * 0x2545F4914F6CDD1DULL) %
                      kMaxWorkerSamples] = s;
  }
}

// ---------------------------------------------------------------------------
// Control & export.

void timeline_start(const std::string& path) { enable(path); }

TimelineData timeline_snapshot() {
  TimelineState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.data;
}

std::string timeline_to_json(const TimelineData& data) {
  json::Writer w;
  w.begin_object();
  w.kv("schema", "bpart-timeline/v1");
  w.kv("created_unix",
       static_cast<std::int64_t>(
           std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::system_clock::now().time_since_epoch())
               .count()));
  w.kv("pid", static_cast<std::int64_t>(::getpid()));
  w.key("runs").begin_array();
  for (const TimelineRun& r : data.runs) {
    w.begin_object();
    w.kv("id", r.id);
    w.kv("label", r.label);
    w.kv("machines", static_cast<std::uint64_t>(r.machines));
    w.key("supersteps").begin_array();
    for (const TimelineSuperstep& s : r.supersteps) {
      w.begin_object();
      w.kv("index", static_cast<std::uint64_t>(s.index));
      w.kv("duration_seconds", s.duration_seconds);
      w.kv("gating_machine", static_cast<std::uint64_t>(s.gating_machine));
      w.key("machines").begin_array();
      for (const TimelineMachineRow& m : s.machines) {
        w.begin_object()
            .kv("machine", static_cast<std::uint64_t>(m.machine))
            .kv("worker", static_cast<std::uint64_t>(m.worker))
            .kv("compute_seconds", m.compute_seconds)
            .kv("comm_seconds", m.comm_seconds)
            .kv("wait_seconds", m.wait_seconds)
            .kv("work", m.work)
            .kv("sent", m.sent)
            .kv("received", m.received)
            .kv("bytes_sent", m.bytes_sent)
            .kv("bytes_received", m.bytes_received)
            .end_object();
      }
      w.end_array();
      if (!s.channel_bytes.empty()) {
        w.key("channel_bytes").begin_array();
        for (const std::uint64_t b : s.channel_bytes) w.value(b);
        w.end_array();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("exec_workers").begin_array();
  for (const TimelineWorkerStats& ws : data.workers) {
    w.begin_object()
        .kv("worker", static_cast<std::uint64_t>(ws.worker))
        .kv("chunks", ws.chunks)
        .kv("steals", ws.steals)
        .kv("busy_seconds", ws.busy_seconds);
    w.key("sample_seconds").begin_array();
    for (const double s : ws.sample_seconds) w.value(s);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("dropped")
      .begin_object()
      .kv("runs", data.dropped_runs)
      .end_object();
  w.end_object();
  return w.str();
}

std::string timeline_flush() {
  if (g_timeline_state.load(std::memory_order_acquire) != kTimelineOn)
    return "";
  const std::string out = timeline_to_json(timeline_snapshot());
  std::string path;
  {
    TimelineState& st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    path = st.path;
  }
  if (path.empty()) return "";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    LOG_WARN << "[obs] cannot write timeline file " << path;
    return "";
  }
  f << out << '\n';
  LOG_INFO << "[obs] timeline written to " << path;
  return path;
}

std::string timeline_stop() {
  const std::string path = timeline_flush();
  g_timeline_state.store(kTimelineOff, std::memory_order_release);
  TimelineState& st = state();
  std::lock_guard<std::mutex> lock(st.mu);
  st.data = TimelineData{};
  return path;
}

}  // namespace bpart::obs
