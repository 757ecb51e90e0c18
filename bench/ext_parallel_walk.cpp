// Extension — parallel walk engine (DESIGN.md §13). Three gates, all
// enforced through the exit code so CI can run this as a correctness
// check, not just a timing report:
//
// 1. Determinism: for PPR, DeepWalk and node2vec the exec-core engine must
//    produce bitwise-identical outputs (total steps, message walks, FNV of
//    the per-vertex visit counts) at 1, 2, 4 and 8 threads, and at a
//    non-default chunk size — the counter-RNG contract.
// 2. Speedup: >= 2.5x at 8 threads over 1 thread on the ~2.3M edge
//    graph. Only asserted when the host actually has >= 8 hardware
//    threads (CI runners and this container often do not; the table still
//    reports whatever speedup was measured).
// 3. Fig. 4 load balance: the per-machine walking-step max-load share under
//    BPart must not exceed Hash's — the paper's ordering (walk work follows
//    edge mass, which BPart balances and Hash does not).
#include "common.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "walk/apps.hpp"

using namespace bpart;

namespace {

struct Timed {
  double seconds = 0;
  std::uint64_t steals = 0;  ///< exec.steals delta of the min-time repeat.
};

template <typename Fn>
Timed time_best(int repeats, Fn&& fn) {
  Timed best;
  for (int r = 0; r < repeats; ++r) {
    const std::uint64_t steals0 = obs::counter("exec.steals").value();
    Timer timer;
    fn();
    const double s = timer.seconds();
    const std::uint64_t steals = obs::counter("exec.steals").value() - steals0;
    if (r == 0 || s < best.seconds) best = {s, steals};
  }
  return best;
}

/// FNV-1a folded over the visit counts — one word summarizing the full
/// per-vertex walk output, so cross-thread-count equality is one compare.
std::uint64_t visits_fnv(const std::vector<std::uint64_t>& visits) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t v : visits) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// The walk outputs that must be schedule-independent.
struct Outputs {
  std::uint64_t steps = 0;
  std::uint64_t message_walks = 0;
  std::uint64_t fnv = 0;

  bool operator==(const Outputs&) const = default;
};

Outputs outputs_of(const walk::WalkReport& r) {
  return {r.total_steps, r.message_walks, visits_fnv(r.visits)};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const auto k = static_cast<partition::PartId>(opts.get_int("parts", 8));
  const auto repeats = static_cast<int>(opts.get_int("repeats", 3));
  bench::report().set_name("parallel_walk");

  // Same graph as ext_parallel_engine: ~2.3M directed edges at scale 1.
  graph::CommunityGraphConfig gcfg;
  gcfg.num_vertices = static_cast<graph::VertexId>(65536 * dataset_scale());
  gcfg.avg_degree = 18.0;
  gcfg.seed = 11;
  const graph::Graph g =
      graph::Graph::from_edges_symmetric(graph::community_scale_free(gcfg));
  LOG_INFO << "parallel-walk graph: " << g.num_vertices() << " vertices, "
           << g.num_edges() << " directed edges, k=" << k;
  const partition::Partition parts = bench::run_partitioner(g, "bpart", k);

  int failures = 0;
  Table table({"app", "mode", "threads", "seconds", "speedup", "steals",
               "identical", "steps", "message_walks", "visits_fnv"});
  auto add_row = [&](const std::string& app, const std::string& mode,
                     unsigned threads, const Timed& t, double base_seconds,
                     bool identical, const Outputs& out) {
    table.row()
        .cell(app)
        .cell(mode)
        .cell(static_cast<int>(threads))
        .cell(t.seconds)
        .cell(t.seconds > 0 ? base_seconds / t.seconds : 0.0)
        .cell(static_cast<int>(t.steals))
        .cell(identical ? 1 : 0)
        .cell(out.steps)
        .cell(out.message_walks)
        .cell(out.fnv);
  };

  // --- determinism + speedup: exec at 1/2/4/8 threads ----------------------
  const unsigned hw = std::thread::hardware_concurrency();
  for (const std::string name : {"ppr", "deepwalk", "node2vec"}) {
    const std::unique_ptr<walk::WalkApp> app = walk::create_walk_app(name);

    // The 1-thread run anchors both the speedup and the bitwise contract.
    Outputs ref;
    double t1_seconds = 0;
    double t8_speedup = 0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      walk::WalkConfig cfg;
      cfg.exec.threads = threads;
      walk::WalkReport last;
      const Timed t = time_best(
          repeats, [&] { last = walk::run_walks(g, parts, *app, cfg); });
      const Outputs out = outputs_of(last);
      if (threads == 1) {
        ref = out;
        t1_seconds = t.seconds;
      }
      const bool identical = out == ref;
      if (!identical) {
        LOG_ERROR << name << ": exec outputs at " << threads
                  << " threads diverge from the 1-thread run";
        ++failures;
      }
      add_row(name, "exec/t" + std::to_string(threads), threads, t,
              t1_seconds, identical, out);
      if (threads == 8 && t.seconds > 0) t8_speedup = t1_seconds / t.seconds;
    }

    // Chunk-size invariance: boundaries move, outputs must not.
    {
      walk::WalkConfig cfg;
      cfg.exec.threads = 2;
      cfg.exec.chunk_edges = 512;
      const walk::WalkReport last = walk::run_walks(g, parts, *app, cfg);
      const Outputs out = outputs_of(last);
      const bool identical = out == ref;
      if (!identical) {
        LOG_ERROR << name << ": exec outputs at chunk_edges=512 diverge";
        ++failures;
      }
      add_row(name, "exec/t2/c512", 2, {}, t1_seconds, identical, out);
    }

    if (hw >= 8 && t8_speedup < 2.5) {
      LOG_ERROR << name << ": 8-thread speedup " << t8_speedup
                << " below the 2.5x bar on a >=8-way host";
      ++failures;
    }
  }

  // --- fig04-style load balance: BPart max-load <= Hash ---------------------
  Table balance({"partitioner", "total_steps", "max_load_share"});
  double max_share_bpart = 0, max_share_hash = 0;
  for (const std::string algo : {"bpart", "hash"}) {
    const partition::Partition p =
        algo == "bpart" ? parts : bench::run_partitioner(g, "hash", k);
    walk::WalkConfig cfg;
    cfg.walks_per_vertex = 5;
    cfg.exec.threads = 2;
    const auto report =
        walk::run_walks(g, p, walk::SimpleRandomWalk(4), cfg);
    // Heaviest machine's share of the whole run's walking steps — the
    // Fig. 4 balance claim: walk work follows edge mass, which BPart
    // balances and Hash only matches in expectation. (Per-iteration max
    // shares are dominated by the near-empty tail iterations, where a
    // handful of surviving walkers make any share spiky.)
    std::vector<std::uint64_t> per_machine(k, 0);
    std::uint64_t grand_total = 0;
    for (const auto& iter : report.run.iterations)
      for (cluster::MachineId m = 0; m < iter.machines.size(); ++m) {
        per_machine[m] += iter.machines[m].work_items;
        grand_total += iter.machines[m].work_items;
      }
    double max_share = 0;
    for (const std::uint64_t w : per_machine)
      max_share = std::max(max_share, static_cast<double>(w) /
                                          static_cast<double>(grand_total));
    (algo == "bpart" ? max_share_bpart : max_share_hash) = max_share;
    balance.row().cell(algo).cell(report.total_steps).cell(max_share);
  }
  if (max_share_bpart > max_share_hash) {
    LOG_ERROR << "fig04 ordering violated: BPart max-load share "
              << max_share_bpart << " > Hash " << max_share_hash;
    ++failures;
  }

  // Balance first: emit() overwrites the JSON report's table each call, and
  // the main table is the one the perf-gate compare and the determinism
  // job's identical check must see.
  bench::emit("Fig. 4 check: max whole-run load share (BPart vs Hash)",
              balance, "ext_parallel_walk_balance");
  bench::emit(
      "Extension: parallel walk engine (speedup, bitwise determinism, fig04 "
      "load balance)",
      table, "ext_parallel_walk");
  if (failures > 0)
    LOG_ERROR << failures << " parallel-walk gate(s) failed";
  return failures == 0 ? 0 : 1;
}
