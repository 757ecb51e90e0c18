// Partitioner interface and the shared streaming-partition driver.
//
// Fig. 2 of the paper shows all practical schemes as variations of one
// workflow: scan a vertex stream, decide a part per vertex. Chunk-V/Chunk-E
// use running counters, Hash a random draw, Fennel and BPart's phase 1 a
// per-part score. `greedy_stream_partition` implements the score-based
// variant once; Fennel and BPart plug in their configurations.
#pragma once

#include <memory>
#include <string>

#include "graph/csr.hpp"
#include "partition/partition.hpp"

namespace bpart::partition {

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Stable identifier ("chunk-v", "fennel", "bpart", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Split g's vertices into k parts. Must return a fully assigned
  /// partition with exactly k parts. Implementations are deterministic for
  /// a fixed (graph, k, configuration).
  [[nodiscard]] virtual Partition partition(const graph::Graph& g,
                                            PartId k) const = 0;
};

/// Configuration of the greedy streaming pass shared by Fennel and BPart.
struct StreamConfig {
  /// Weighting factor c in the paper's Eq. 1. c=1 reduces W_i to |V_i|
  /// (classic Fennel); c=0 to |E_i|/d̄; BPart default is 1/2.
  double balance_weight_c = 1.0;

  /// Fennel's γ exponent of the penalty term (Eq. 2); γ=1.5 is the
  /// published default.
  double gamma = 1.5;

  /// Fennel's α. 0 means auto-calibrate to sqrt(k)·m / n^1.5, the value
  /// the Fennel paper derives for γ=1.5.
  double alpha = 0.0;

  /// Multiplier applied to the auto-calibrated α (ignored when alpha > 0).
  /// Values < 1 shift the soft score toward cut minimization and leave
  /// balancing to the hard capacity cap.
  double alpha_scale = 1.0;

  /// Hard capacity: no part may exceed slack × (ΣW / k). Keeps adversarial
  /// streams from collapsing into one part; 0 disables the cap.
  double capacity_slack = 1.2;

  /// Buffered-streaming batch size (Chhabra et al. style). 0 (default)
  /// selects the classic one-vertex-at-a-time sequential pass. Any value
  /// > 0 switches to the batched pass: vertices are scored in batches of
  /// this size against an immutable snapshot of the per-part state and
  /// committed in stream order. The batched result is independent of
  /// `threads` (the same partition at 1 or 8 workers) but differs from the
  /// sequential pass, because vertices within one batch do not see each
  /// other's assignments.
  std::uint32_t batch_size = 0;

  /// Worker threads for batched scoring; 0 defers to util::thread_count()
  /// ($BPART_THREADS, else hardware concurrency). Ignored by the
  /// sequential pass. Never changes the result, only the wall-clock.
  unsigned threads = 0;

  /// Sentinel for refine_passes: one restream pass when the buffered pass
  /// engages, none after a sequential pass.
  static constexpr unsigned kRefineAuto = static_cast<unsigned>(-1);

  /// Prioritized-restreaming refinement passes (Awadelkarim & Ugander):
  /// re-score already-assigned vertices in descending-degree order, moving
  /// each to its best part under the capacity cap. The restream runs the
  /// same batched snapshot/score/commit protocol as the initial pass (so it
  /// parallelizes), with moves capacity-checked against exact state at
  /// commit. kRefineAuto (default) ties refinement to buffering: batched
  /// scoring trades cut quality for parallelism and the restream is what
  /// buys it back (measured in bench/ext_parallel_stream). Explicit 0
  /// disables refinement even when buffered; explicit N always runs N
  /// passes (after a sequential pass they restream with batch 1, i.e.
  /// against fully exact state).
  unsigned refine_passes = kRefineAuto;
};

/// Stream `vertices` (in the given order) into k fresh parts, greedily
/// maximizing S(v, G_i) = |V_i ∩ N(v)| − α·γ·W_i^(γ−1) (paper Eq. 2).
/// N(v) holds out- and in-neighbors alike: the same set on the paper's
/// symmetric graphs, and much lower cuts than out-neighbors on directed ones.
/// Graph::for_each_neighbor scans it, a one-sided graph's one run counting
/// each neighbor twice, as out then in would (DESIGN.md §9).
///
/// Only vertices in `vertices` participate: neighbor overlap counts other
/// subset members already assigned, and balance totals are subset-local.
/// Returns a full-size Partition in which vertices outside the subset are
/// kUnassigned; the pass reads subset membership off that fresh partition,
/// so it allocates nothing |V|-sized beyond it. A vertex listed twice
/// throws CheckError. Passing all vertices of g gives the classic
/// whole-graph streaming partition.
///
/// The sequential pass costs one O(deg) neighbor scan plus k compares per
/// vertex: each part's W_i and penalty are cached and only the chosen
/// part's are recomputed, one `pow` per assignment (DESIGN.md §9).
///
/// With cfg.batch_size > 0 the pass runs the parallel buffered protocol
/// documented in DESIGN.md §9: score a batch of vertices concurrently
/// against a part-state snapshot, merge sharded per-worker accumulators at
/// the batch boundary, commit in stream order.
/// Deterministic for a fixed (graph, subset, k, cfg) at any thread count.
Partition greedy_stream_partition(const graph::Graph& g,
                                  std::span<const graph::VertexId> vertices,
                                  PartId k, const StreamConfig& cfg);

}  // namespace bpart::partition
