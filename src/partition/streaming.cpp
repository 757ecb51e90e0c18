// The shared streaming-partition driver: one sequential pass (classic
// Fennel-style, exact state) and one parallel buffered pass (DESIGN.md §9).
//
// The buffered pass follows Buffered Streaming Edge Partitioning: the vertex
// stream is cut into batches; worker threads score a batch concurrently
// against an immutable snapshot of the per-part state, tentative loads are
// collected in sharded atomic accumulators, and assignments are committed
// deterministically in stream order with an exact-state capacity fallback.
// An optional prioritized-restreaming refinement (Awadelkarim & Ugander)
// re-scores assigned vertices against exact state to recover the edge-cut
// quality the snapshot scoring gives up.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "exec/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"
#include "util/check.hpp"
#include "util/env.hpp"

namespace bpart::partition {

namespace {

/// Vertices per scoring chunk of the batched passes.
constexpr std::uint32_t kScoreChunk = 256;

/// Per-part running state of the streaming pass.
struct PartState {
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;  ///< Sum of out-degrees of assigned vertices.
};

/// One shard entry of the batch accumulator. Each scoring worker adds its
/// slice's tentative deltas into its own shard with relaxed atomics; the
/// commit step drains every shard with an associative integer sum, so the
/// merged totals are independent of worker count and interleaving.
struct AtomicPartState {
  std::atomic<std::uint64_t> vertices{0};
  std::atomic<std::uint64_t> edges{0};
};

/// Stream-pass calibration shared by the sequential pass, the buffered pass
/// and the refinement restream (all derived from the subset totals).
struct Calibration {
  double c = 1.0;           ///< Eq. 1 weighting factor.
  double avg_degree = 1.0;  ///< Subset-local d̄ normalizing the edge term.
  double alpha = 0.0;
  double gamma = 1.5;
  double capacity = std::numeric_limits<double>::infinity();

  /// W_i = c·|V_i| + (1−c)·|E_i|/d̄ (Eq. 1). Both terms are in "vertices"
  /// units, so ΣW == n_subset and Fennel's α calibration carries over.
  [[nodiscard]] double weight(const PartState& s) const {
    return c * static_cast<double>(s.vertices) +
           (1.0 - c) * static_cast<double>(s.edges) / avg_degree;
  }

  [[nodiscard]] double penalty(double w, double a) const {
    return a * gamma * std::pow(w, gamma - 1.0);
  }
};

/// Classic one-vertex-at-a-time pass over `verts` with exact state. Also
/// serves as the warm-up prefix of the buffered pass: scoring the first
/// batch against an all-empty snapshot would dump it onto one part, so the
/// buffered pass streams its first batch exactly and buffers the rest.
///
/// Per vertex: one O(deg) neighbor scan plus k compares. Each part's W_i
/// and penalty are cached, and only the chosen part's are recomputed (one
/// `pow` per assignment), so the scores equal a full per-vertex rescore.
void sequential_stream(const graph::Graph& g,
                       std::span<const graph::VertexId> verts, PartId k,
                       const Calibration& cal, Partition& p,
                       std::vector<PartState>& state) {
  // overlap[i] = |V_i ∩ N(v)| for the current vertex; the k-part scan
  // reads every entry and zeroes it for the next vertex.
  std::vector<std::uint32_t> overlap(k, 0);
  std::vector<double> wt(k);
  std::vector<double> pen(k);
  for (PartId i = 0; i < k; ++i) {
    wt[i] = cal.weight(state[i]);
    pen[i] = cal.penalty(wt[i], cal.alpha);
  }

  for (graph::VertexId v : verts) {
    BPART_CHECK_MSG(p[v] == kUnassigned,
                    "duplicate vertex " << v << " in subset");
    g.for_each_neighbor(v, [&](graph::VertexId u, unsigned times) {
      const PartId pu = p[u];
      if (pu != kUnassigned) overlap[pu] += times;
    });

    // Score every part. The penalty derivative α·γ·W^(γ−1) is monotone in
    // W, so among parts with equal overlap the least-loaded wins.
    double best_score = -std::numeric_limits<double>::infinity();
    PartId best = kUnassigned;
    double min_weight = std::numeric_limits<double>::infinity();
    PartId least_loaded = 0;
    for (PartId i = 0; i < k; ++i) {
      const std::uint32_t ov = overlap[i];
      overlap[i] = 0;
      const double w = wt[i];
      if (w < min_weight) {
        min_weight = w;
        least_loaded = i;
      }
      if (w >= cal.capacity) continue;  // hard cap
      const double score = static_cast<double>(ov) - pen[i];
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    // All parts at capacity can only happen with a tight slack; fall back
    // to the least-loaded part rather than failing.
    if (best == kUnassigned) best = least_loaded;

    p.assign(v, best);
    ++state[best].vertices;
    state[best].edges += g.out_degree(v);
    wt[best] = cal.weight(state[best]);
    pen[best] = cal.penalty(wt[best], cal.alpha);
  }
}

/// Parallel buffered pass over `verts` (DESIGN.md §9). Per batch:
///   1. snapshot — freeze per-part weights and penalty terms (O(k));
///   2. score   — workers pick each vertex's best part against the frozen
///                snapshot and accumulate tentative loads into their shard;
///   3. merge   — drain the shards into per-part batch deltas (O(k·shards));
///   4. commit  — apply choices in stream order; when the merged deltas
///                prove no part can reach capacity the commit is a bulk
///                write, otherwise each vertex re-checks capacity against
///                exact state and falls back to the least-loaded part.
/// The result depends only on (graph, verts, k, calibration, batch) — never
/// on the worker count — because choices are pure functions of the snapshot
/// and the committed prefix, and the shard merge is an integer sum.
void buffered_stream(const graph::Graph& g,
                     std::span<const graph::VertexId> verts, PartId k,
                     const Calibration& cal, std::uint32_t batch,
                     exec::Executor& ex, Partition& p,
                     std::vector<PartState>& state) {
  const std::size_t n = verts.size();
  std::vector<double> snap_weight(k, 0.0);
  std::vector<double> snap_penalty(k, 0.0);
  std::vector<PartState> merged(k);
  std::vector<PartId> choice(batch, kUnassigned);

  std::vector<std::vector<AtomicPartState>> shards;
  shards.reserve(ex.threads());
  for (unsigned w = 0; w < ex.threads(); ++w) shards.emplace_back(k);

  obs::Counter& batch_counter = obs::counter("partition.stream_batches");
  obs::Counter& fallback_counter =
      obs::counter("partition.stream_commit_fallbacks");

  for (std::size_t base = 0; base < n; base += batch) {
    const std::size_t bn = std::min<std::size_t>(batch, n - base);
    BPART_SPAN("partition/stream_batch", "vertices",
               static_cast<double>(bn));
    batch_counter.add(1);

    // --- 1. snapshot ------------------------------------------------------
    // `least_open` is the least-loaded part still under capacity: it is the
    // best zero-overlap candidate (the penalty is monotone in W), which
    // lets scoring consider only the parts a vertex actually touches.
    PartId least_open = kUnassigned;
    double least_open_weight = std::numeric_limits<double>::infinity();
    for (PartId i = 0; i < k; ++i) {
      const double w = cal.weight(state[i]);
      snap_weight[i] = w;
      snap_penalty[i] = cal.penalty(w, cal.alpha);
      if (w < cal.capacity && w < least_open_weight) {
        least_open_weight = w;
        least_open = i;
      }
    }
    const double zero_overlap_score =
        least_open == kUnassigned
            ? -std::numeric_limits<double>::infinity()
            : -snap_penalty[least_open];

    // --- 2. score ---------------------------------------------------------
    std::atomic<std::uint32_t> capped{0};
    auto score_chunk = [&](unsigned w, std::uint32_t, std::uint32_t lo,
                           std::uint32_t hi) {
      std::vector<AtomicPartState>& acc = shards[w];
      std::vector<std::uint32_t> overlap(k, 0);
      std::vector<PartId> touched;
      touched.reserve(64);
      for (std::uint32_t idx = lo; idx < hi; ++idx) {
        const graph::VertexId v = verts[base + idx];
        g.for_each_neighbor(v, [&](graph::VertexId u, unsigned times) {
          const PartId pu = p[u];
          if (pu == kUnassigned) return;  // includes same-batch neighbors
          if (overlap[pu] == 0) touched.push_back(pu);
          overlap[pu] += times;
        });

        // Ties break toward the lower part id regardless of the order
        // neighbors were seen in, so chunking cannot change the choice.
        PartId best = least_open;
        double best_score = zero_overlap_score;
        for (PartId t : touched) {
          if (snap_weight[t] < cal.capacity) {
            const double score =
                static_cast<double>(overlap[t]) - snap_penalty[t];
            if (score > best_score ||
                (score == best_score && t < best)) {
              best_score = score;
              best = t;
            }
          }
          overlap[t] = 0;
        }
        touched.clear();

        choice[idx] = best;
        if (best == kUnassigned) {
          capped.fetch_add(1, std::memory_order_relaxed);
        } else {
          acc[best].vertices.fetch_add(1, std::memory_order_relaxed);
          acc[best].edges.fetch_add(g.out_degree(v),
                                    std::memory_order_relaxed);
        }
      }
    };

    ex.run(exec::ChunkScheduler::over_items(bn, kScoreChunk), score_chunk);

    // --- 3. merge ---------------------------------------------------------
    bool needs_exact_commit = capped.load(std::memory_order_relaxed) != 0;
    for (PartId i = 0; i < k; ++i) {
      std::uint64_t dv = 0;
      std::uint64_t de = 0;
      for (std::vector<AtomicPartState>& shard : shards) {
        dv += shard[i].vertices.exchange(0, std::memory_order_relaxed);
        de += shard[i].edges.exchange(0, std::memory_order_relaxed);
      }
      merged[i] = {dv, de};
      const PartState after{state[i].vertices + dv, state[i].edges + de};
      if (cal.weight(after) >= cal.capacity) needs_exact_commit = true;
    }

    // --- 4. commit in stream order ---------------------------------------
    if (!needs_exact_commit) {
      // Even the post-batch loads stay under the cap, so no per-vertex
      // check could have fired: bulk-apply the choices and the deltas.
      for (std::size_t idx = 0; idx < bn; ++idx) {
        const graph::VertexId v = verts[base + idx];
        BPART_CHECK_MSG(p[v] == kUnassigned,
                        "duplicate vertex " << v << " in subset");
        p.assign(v, choice[idx]);
      }
      for (PartId i = 0; i < k; ++i) {
        state[i].vertices += merged[i].vertices;
        state[i].edges += merged[i].edges;
      }
    } else {
      std::uint64_t fallbacks = 0;
      for (std::size_t idx = 0; idx < bn; ++idx) {
        const graph::VertexId v = verts[base + idx];
        BPART_CHECK_MSG(p[v] == kUnassigned,
                        "duplicate vertex " << v << " in subset");
        PartId c = choice[idx];
        if (c == kUnassigned || cal.weight(state[c]) >= cal.capacity) {
          double min_weight = std::numeric_limits<double>::infinity();
          c = 0;
          for (PartId i = 0; i < k; ++i) {
            const double w = cal.weight(state[i]);
            if (w < min_weight) {
              min_weight = w;
              c = i;
            }
          }
          ++fallbacks;
        }
        p.assign(v, c);
        ++state[c].vertices;
        state[c].edges += g.out_degree(v);
      }
      fallback_counter.add(fallbacks);
    }
  }
}

/// Prioritized restreaming (Awadelkarim & Ugander) running the same batched
/// snapshot/score/commit protocol as the initial pass: revisit assigned
/// vertices in descending-degree order, re-score each batch concurrently
/// against a frozen snapshot (with the vertex's own contribution removed
/// when scoring its current part), and commit moves in order with an
/// exact-state capacity check. High-degree vertices move first so the long
/// tail re-scores against near-final hub placements. A pass that moves
/// nothing ends the refinement early.
///
/// batch=1 degenerates to the classic exact restream (the snapshot is the
/// exact state for every vertex); larger batches trade a little staleness
/// for parallel scoring. A vertex only moves when the move is a strict
/// improvement under the snapshot, so the restream converges instead of
/// oscillating between equal-score parts.
void restream_refine(const graph::Graph& g,
                     std::span<const graph::VertexId> verts, PartId k,
                     const Calibration& cal, unsigned passes,
                     std::uint32_t batch, exec::Executor& ex, Partition& p,
                     std::vector<PartState>& state) {
  std::vector<graph::VertexId> order(verts.begin(), verts.end());
  std::sort(order.begin(), order.end(),
            [&](graph::VertexId a, graph::VertexId b) {
              const auto da = g.out_degree(a);
              const auto db = g.out_degree(b);
              return da != db ? da > db : a < b;
            });
  const std::size_t n = order.size();

  std::vector<double> snap_weight(k, 0.0);
  std::vector<double> snap_penalty(k, 0.0);
  std::vector<PartId> choice(batch, kUnassigned);
  obs::Counter& moves_counter = obs::counter("partition.stream_refine_moves");

  for (unsigned pass = 0; pass < passes; ++pass) {
    BPART_SPAN("partition/stream_refine", "pass",
               static_cast<double>(pass + 1), "vertices",
               static_cast<double>(n));
    std::uint64_t moves = 0;
    for (std::size_t base = 0; base < n; base += batch) {
      const std::size_t bn = std::min<std::size_t>(batch, n - base);

      // --- snapshot (same shape as the initial pass) -----------------------
      PartId least_open = kUnassigned;
      double least_open_weight = std::numeric_limits<double>::infinity();
      for (PartId i = 0; i < k; ++i) {
        const double w = cal.weight(state[i]);
        snap_weight[i] = w;
        snap_penalty[i] = cal.penalty(w, cal.alpha);
        if (w < cal.capacity && w < least_open_weight) {
          least_open_weight = w;
          least_open = i;
        }
      }

      // --- score: pick each vertex's destination against the snapshot -----
      auto score_chunk = [&](unsigned, std::uint32_t, std::uint32_t lo,
                             std::uint32_t hi) {
        std::vector<std::uint32_t> overlap(k, 0);
        std::vector<PartId> touched;
        touched.reserve(64);
        for (std::uint32_t idx = lo; idx < hi; ++idx) {
          const graph::VertexId v = order[base + idx];
          const PartId old_part = p[v];
          g.for_each_neighbor(v, [&](graph::VertexId u, unsigned times) {
            if (u == v) return;
            const PartId pu = p[u];
            if (pu == kUnassigned) return;
            if (overlap[pu] == 0) touched.push_back(pu);
            overlap[pu] += times;
          });

          // Staying put is the baseline: score the current part with v's own
          // Eq. 1 contribution removed (it is part of the snapshot weight),
          // and require a strictly better score to move. Candidates are the
          // touched parts plus the least-loaded open part (the best
          // zero-overlap destination); both are capacity-gated on the
          // snapshot, with the exact re-check at commit.
          const double contrib =
              cal.c + (1.0 - cal.c) *
                          static_cast<double>(g.out_degree(v)) /
                          cal.avg_degree;
          const double old_w = std::max(snap_weight[old_part] - contrib, 0.0);
          PartId best = old_part;
          double best_score = static_cast<double>(overlap[old_part]) -
                              cal.penalty(old_w, cal.alpha);
          if (least_open != kUnassigned && least_open != old_part) {
            const double score = static_cast<double>(overlap[least_open]) -
                                 snap_penalty[least_open];
            if (score > best_score) {
              best_score = score;
              best = least_open;
            }
          }
          for (PartId t : touched) {
            if (t != old_part && snap_weight[t] < cal.capacity) {
              const double score =
                  static_cast<double>(overlap[t]) - snap_penalty[t];
              if (score > best_score ||
                  (score == best_score && best != old_part && t < best)) {
                best_score = score;
                best = t;
              }
            }
            overlap[t] = 0;
          }
          touched.clear();
          choice[idx] = best;
        }
      };
      ex.run(exec::ChunkScheduler::over_items(bn, kScoreChunk), score_chunk);

      // --- commit moves in order against exact state -----------------------
      for (std::size_t idx = 0; idx < bn; ++idx) {
        const graph::VertexId v = order[base + idx];
        const PartId old_part = p[v];
        const PartId c = choice[idx];
        if (c == old_part) continue;
        --state[old_part].vertices;
        state[old_part].edges -= g.out_degree(v);
        if (cal.weight(state[c]) >= cal.capacity) {
          // Snapshot said open, exact state says full: keep the vertex put.
          ++state[old_part].vertices;
          state[old_part].edges += g.out_degree(v);
          continue;
        }
        p.assign(v, c);
        ++state[c].vertices;
        state[c].edges += g.out_degree(v);
        ++moves;
      }
    }
    moves_counter.add(moves);
    if (moves == 0) break;
  }
}

}  // namespace

Partition greedy_stream_partition(const graph::Graph& g,
                                  std::span<const graph::VertexId> vertices,
                                  PartId k, const StreamConfig& cfg) {
  BPART_CHECK(k >= 1);
  BPART_CHECK(cfg.balance_weight_c >= 0.0 && cfg.balance_weight_c <= 1.0);
  BPART_CHECK(cfg.gamma > 1.0);
  BPART_SPAN("partition/stream_pass", "vertices",
             static_cast<double>(vertices.size()), "parts",
             static_cast<double>(k));
  obs::ScopedLatency pass_latency(obs::latency("partition.stream_pass"));
  obs::counter("partition.stream_vertices").add(vertices.size());

  Partition p(g.num_vertices(), k);
  if (vertices.empty()) return p;

  // Subset-local totals drive the calibration of α and the capacity cap.
  // Subset membership is read off `p`: it is fresh, so every vertex outside
  // the subset reads kUnassigned in every pass and adds no overlap.
  // Duplicate entries are caught where each vertex is assigned.
  const auto n_subset = static_cast<double>(vertices.size());
  std::uint64_t m_subset = 0;
  for (graph::VertexId v : vertices) {
    BPART_CHECK(v < g.num_vertices());
    m_subset += g.out_degree(v);
  }

  Calibration cal;
  cal.c = cfg.balance_weight_c;
  cal.avg_degree =
      m_subset == 0 ? 1.0 : static_cast<double>(m_subset) / n_subset;
  cal.gamma = cfg.gamma;
  cal.alpha = cfg.alpha > 0.0
                  ? cfg.alpha
                  : cfg.alpha_scale * std::sqrt(static_cast<double>(k)) *
                        static_cast<double>(m_subset) /
                        std::pow(n_subset, 1.5);
  cal.capacity = cfg.capacity_slack > 0.0
                     ? cfg.capacity_slack * n_subset / static_cast<double>(k)
                     : std::numeric_limits<double>::infinity();

  std::vector<PartState> state(k);

  const std::uint32_t batch = cfg.batch_size;
  // The buffered pass only engages when there is more than one batch; a
  // subset that fits in one batch keeps exact sequential scoring (BPart's
  // late combining layers and small bisection pieces stay bit-identical).
  const bool buffered = batch != 0 && vertices.size() > batch;
  const unsigned workers = cfg.threads != 0 ? cfg.threads : thread_count();
  exec::Executor ex(buffered ? workers : 1);

  if (!buffered) {
    sequential_stream(g, vertices, k, cal, p, state);
  } else {
    // Warm-up: stream the first batch exactly. Scoring it against the
    // initial all-empty snapshot would give every vertex the same zero
    // overlap and the same penalty, collapsing the batch onto one part.
    sequential_stream(g, vertices.first(batch), k, cal, p, state);
    buffered_stream(g, vertices.subspan(batch), k, cal, batch, ex, p, state);
  }

  // kRefineAuto ties refinement to buffering: the snapshot scoring trades
  // cut quality for parallelism and one restream buys it back (measured in
  // bench/ext_parallel_stream). After a sequential pass the restream uses
  // batch 1, i.e. fully exact state.
  unsigned refine = cfg.refine_passes;
  if (refine == StreamConfig::kRefineAuto) refine = buffered ? 1 : 0;
  if (refine > 0)
    restream_refine(g, vertices, k, cal, refine, buffered ? batch : 1, ex, p,
                    state);
  return p;
}

}  // namespace bpart::partition
