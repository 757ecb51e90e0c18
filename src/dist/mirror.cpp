#include "dist/mirror.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "exec/edge_map.hpp"
#include "exec/scheduler.hpp"
#include "exec/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace bpart::dist {

namespace {

struct PrMirrorMsg {
  double value = 0;
  graph::VertexId vertex = 0;
  std::uint8_t kind = 0;
};
constexpr std::uint8_t kShare = 0;     // master -> mirrors: fresh share
constexpr std::uint8_t kPartial = 1;   // mirror -> master: gathered partial
constexpr std::uint8_t kDangling = 2;  // machine -> all: dangling mass

struct PrShardState {
  std::vector<double> rank;   // masters authoritative
  std::vector<double> share;  // all replicas, refreshed each round
  std::vector<double> acc;    // masters: combined partials of the round
  double dang_local = 0;      // own masters' dangling mass this round
  double dang_in = 0;         // dangling broadcasts received
  // Exec core of the A-phase gather.
  std::unique_ptr<exec::Executor> ex;
  exec::ChunkScheduler in_plan;
  std::vector<double> partial;
  std::uint64_t gather_work = 0;  // Σ local in-degree
};

}  // namespace

engine::PageRankResult mirror_pagerank(const vcut::MirrorGraph& mg,
                                       const engine::PageRankConfig& cfg,
                                       const DistOptions& opts) {
  const MachineId machines = mg.num_machines();
  const graph::VertexId n = mg.num_global();
  const double inv_n = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  const unsigned exec_threads = opts.exec.resolved_threads();

  std::vector<PrShardState> state(machines);
  for (MachineId m = 0; m < machines; ++m) {
    const auto& sh = mg.shard(m);
    const graph::VertexId nr = sh.num_replicas();
    PrShardState& st = state[m];
    st.rank.assign(nr, 0.0);
    st.share.assign(nr, 0.0);
    st.acc.assign(nr, 0.0);
    st.partial.assign(nr, 0.0);
    for (graph::VertexId r = 0; r < nr; ++r)
      st.gather_work += sh.local.in_degree(r);
    st.ex = std::make_unique<exec::Executor>(exec_threads);
    st.in_plan = exec::ChunkScheduler::over_range(
        sh.local.in_offsets(), 0, nr, opts.exec.chunk_edges);
  }

  // Fresh shares + dangling mass out of the masters; runs at superstep 0
  // (bootstrap from the uniform init) and after every apply.
  auto emit_round = [&](Runtime<PrMirrorMsg>::Context& ctx) {
    const auto& sh = mg.shard(ctx.self());
    PrShardState& st = state[ctx.self()];
    st.dang_local = 0;
    const graph::VertexId nr = sh.num_replicas();
    for (graph::VertexId r = 0; r < nr; ++r) {
      if (!sh.is_master[r]) continue;
      const graph::EdgeId deg = sh.global_out_degree[r];
      double share = 0.0;
      if (deg == 0) {
        st.dang_local += st.rank[r];
      } else {
        share = st.rank[r] / static_cast<double>(deg);
      }
      st.share[r] = share;
      const graph::VertexId v = sh.global_id[r];
      for (std::uint32_t h = sh.mirror_offsets[r];
           h < sh.mirror_offsets[r + 1]; ++h)
        ctx.send(sh.mirror_holders[h], {share, v, kShare});
    }
    if (st.dang_local != 0.0) {
      for (MachineId d = 0; d < machines; ++d)
        if (d != ctx.self()) ctx.send(d, {st.dang_local, 0, kDangling});
    }
  };

  // Protocol: superstep 0 bootstraps (init + emit round 1's shares); odd
  // supersteps gather (A-phase); even supersteps s >= 2 apply iteration
  // s / 2 and, unless done, emit the next round (B-phase).
  RuntimeConfig rcfg;
  rcfg.threads = opts.threads;
  rcfg.max_supersteps = std::size_t{2} * cfg.iterations + 1;
  RunResult run = Runtime<PrMirrorMsg>::run(
      machines, rcfg, [&](Runtime<PrMirrorMsg>::Context& ctx, std::size_t s) {
        const auto& sh = mg.shard(ctx.self());
        PrShardState& st = state[ctx.self()];
        const graph::VertexId nr = sh.num_replicas();

        if (s == 0) {
          for (graph::VertexId r = 0; r < nr; ++r)
            if (sh.is_master[r]) st.rank[r] = inv_n;
          ctx.add_work(nr);
          if (cfg.iterations == 0) return Vote::kHalt;
          ctx.mark_comm();
          emit_round(ctx);
          return Vote::kContinue;
        }

        if (s % 2 == 1) {  // A-phase: gather shard-local partials
          ctx.for_each_message([&](const PrMirrorMsg& msg) {
            if (msg.kind == kDangling) {
              st.dang_in += msg.value;
            } else {
              st.share[sh.replica_of(msg.vertex)] = msg.value;
            }
          });
          ctx.add_work(st.gather_work);
          exec::process_edges_pull(
              *st.ex, st.in_plan, sh.local.in_offsets(), sh.local.in_targets(),
              [&](unsigned, std::uint32_t, graph::VertexId r) {
                st.partial[r] = exec::simd::gather_sum(
                    sh.local.in_neighbors(r), st.share.data());
              });
          ctx.mark_comm();
          for (graph::VertexId r = 0; r < nr; ++r) {
            if (sh.is_master[r]) {
              st.acc[r] = st.partial[r];
            } else if (st.partial[r] != 0.0) {
              ctx.send(sh.master_machine[r],
                       {st.partial[r], sh.global_id[r], kPartial});
            }
          }
          return Vote::kContinue;
        }

        // B-phase: combine partials, apply, emit the next round.
        ctx.for_each_message([&](const PrMirrorMsg& msg) {
          st.acc[sh.replica_of(msg.vertex)] += msg.value;
        });
        const double dangling = st.dang_local + st.dang_in;
        const double base =
            (1.0 - cfg.damping) * inv_n + cfg.damping * dangling * inv_n;
        for (graph::VertexId r = 0; r < nr; ++r) {
          if (!sh.is_master[r]) continue;
          st.rank[r] = base + cfg.damping * st.acc[r];
          st.acc[r] = 0.0;
        }
        st.dang_in = 0;
        ctx.add_work(nr);
        if (s == std::size_t{2} * cfg.iterations) return Vote::kHalt;
        ctx.mark_comm();
        emit_round(ctx);
        return Vote::kContinue;
      });

  // Timeline post-pass: tag each superstep with its protocol phase and
  // split the traffic by direction. A-phase sends are the mirror->master
  // partials; boot/B-phase sends are the master->mirror share refresh
  // (plus the dangling broadcast, which rides the same direction).
  if (obs::timeline_enabled()) {
    const std::uint64_t tl = obs::timeline_last_run();
    std::vector<std::string> phases;
    phases.reserve(run.report.iterations.size());
    double to_master = 0;
    double to_mirror = 0;
    for (std::size_t s = 0; s < run.report.iterations.size(); ++s) {
      phases.emplace_back(s == 0 ? "boot" : (s % 2 == 1 ? "A" : "B"));
      for (const auto& m : run.report.iterations[s].machines) {
        if (s != 0 && s % 2 == 1)
          to_master += static_cast<double>(m.bytes_sent);
        else
          to_mirror += static_cast<double>(m.bytes_sent);
      }
    }
    obs::timeline_set_phases(tl, phases);
    obs::timeline_annotate_run(tl, "mirror_to_master_bytes", to_master);
    obs::timeline_annotate_run(tl, "master_to_mirror_bytes", to_mirror);
  }

  engine::PageRankResult result;
  result.rank.assign(n, inv_n);
  for (MachineId m = 0; m < machines; ++m) {
    const auto& sh = mg.shard(m);
    for (graph::VertexId r = 0; r < sh.num_replicas(); ++r)
      if (sh.is_master[r]) result.rank[sh.global_id[r]] = state[m].rank[r];
  }
  result.run = std::move(run.report);
  obs::counter("vcut.mirror_pr_runs").add(1);
  return result;
}

namespace {

struct CcMirrorMsg {
  graph::VertexId vertex = 0;
  graph::VertexId label = 0;
};

}  // namespace

engine::ComponentsResult mirror_components(const vcut::MirrorGraph& mg,
                                           const DistOptions& opts) {
  const MachineId machines = mg.num_machines();
  const graph::VertexId n = mg.num_global();

  std::vector<std::vector<graph::VertexId>> label(machines);
  std::vector<std::vector<std::uint8_t>> changed(machines);
  for (MachineId m = 0; m < machines; ++m) {
    const auto& sh = mg.shard(m);
    label[m].assign(sh.global_id.begin(), sh.global_id.end());
    changed[m].assign(sh.num_replicas(), 1);  // initial sync round
  }

  // Direction split for the timeline (HashMin sends both directions in
  // the same superstep, so the per-superstep totals can't separate them).
  // One counter pair per machine: each machine is driven by exactly one
  // thread per superstep, so writes never race.
  const bool tl_on = obs::timeline_enabled();
  struct DirCount {
    std::uint64_t to_master = 0;
    std::uint64_t to_mirror = 0;
  };
  std::vector<DirCount> dir(tl_on ? machines : 0);

  RuntimeConfig rcfg;
  rcfg.threads = opts.threads;
  RunResult run = Runtime<CcMirrorMsg>::run(
      machines, rcfg, [&](Runtime<CcMirrorMsg>::Context& ctx, std::size_t s) {
        const auto& sh = mg.shard(ctx.self());
        std::vector<graph::VertexId>& lab = label[ctx.self()];
        std::vector<std::uint8_t>& dirty = changed[ctx.self()];
        const graph::VertexId nr = sh.num_replicas();

        ctx.for_each_message([&](const CcMirrorMsg& msg) {
          const graph::VertexId r = sh.replica_of(msg.vertex);
          if (msg.label < lab[r]) {
            lab[r] = msg.label;
            dirty[r] = 1;
          }
        });

        // Shard-local HashMin to a fixpoint over the undirected view:
        // deterministic (sweeps in replica order, strict decreases only).
        bool swept_change = true;
        while (swept_change) {
          swept_change = false;
          for (graph::VertexId r = 0; r < nr; ++r) {
            for (const graph::VertexId u : sh.local.out_neighbors(r)) {
              if (lab[u] < lab[r]) {
                lab[r] = lab[u];
                dirty[r] = 1;
                swept_change = true;
              } else if (lab[r] < lab[u]) {
                lab[u] = lab[r];
                dirty[u] = 1;
                swept_change = true;
              }
            }
          }
          ctx.add_work(sh.local.num_edges());
        }

        // On the first superstep every replica syncs once so equal labels
        // across copies are established; afterwards only drops travel.
        ctx.mark_comm();
        bool sent = false;
        for (graph::VertexId r = 0; r < nr; ++r) {
          if (!dirty[r]) continue;
          dirty[r] = 0;
          const graph::VertexId v = sh.global_id[r];
          if (!sh.is_master[r]) {
            ctx.send(sh.master_machine[r], {v, lab[r]});
            sent = true;
            if (tl_on) ++dir[ctx.self()].to_master;
          } else {
            for (std::uint32_t h = sh.mirror_offsets[r];
                 h < sh.mirror_offsets[r + 1]; ++h) {
              ctx.send(sh.mirror_holders[h], {v, lab[r]});
              sent = true;
              if (tl_on) ++dir[ctx.self()].to_mirror;
            }
          }
        }
        (void)s;
        return sent ? Vote::kContinue : Vote::kHalt;
      });

  if (tl_on) {
    const std::uint64_t tl = obs::timeline_last_run();
    obs::timeline_set_phases(
        tl, std::vector<std::string>(run.report.iterations.size(),
                                     "hashmin"));
    double to_master = 0;
    double to_mirror = 0;
    for (const DirCount& d : dir) {
      to_master += static_cast<double>(d.to_master * sizeof(CcMirrorMsg));
      to_mirror += static_cast<double>(d.to_mirror * sizeof(CcMirrorMsg));
    }
    obs::timeline_annotate_run(tl, "mirror_to_master_bytes", to_master);
    obs::timeline_annotate_run(tl, "master_to_mirror_bytes", to_mirror);
  }

  engine::ComponentsResult result;
  result.label.assign(n, 0);
  for (graph::VertexId v = 0; v < n; ++v) result.label[v] = v;
  for (MachineId m = 0; m < machines; ++m) {
    const auto& sh = mg.shard(m);
    for (graph::VertexId r = 0; r < sh.num_replicas(); ++r)
      if (sh.is_master[r]) result.label[sh.global_id[r]] = label[m][r];
  }
  for (graph::VertexId v = 0; v < n; ++v)
    if (result.label[v] == v) ++result.num_components;
  result.run = std::move(run.report);
  obs::counter("vcut.mirror_cc_runs").add(1);
  return result;
}

}  // namespace bpart::dist
