// BPart — the paper's two-phase, two-dimensional balanced partitioner (§3).
//
// Phase 1 ("partitioning"): over-split the graph into oversplit_factor × N
// pieces with the weighted streaming pass (Eq. 1/2, c = 1/2 by default).
// The weighted indicator leaves both dimensions mildly skewed but makes
// piece vertex counts and edge counts *inversely proportional*.
//
// Phase 2 ("combining", Fig. 9): sort pieces by |V_i| and pair the
// smallest-|V| (≈ largest-|E|) piece with the largest-|V| piece. Combined
// subgraphs within `balance_threshold` of the ideal N-way split in BOTH
// dimensions are finalized; the rest of the graph is re-partitioned at the
// next layer with a doubled over-split factor, until every subgraph is
// balanced or `max_layers` is reached.
#pragma once

#include <cstdint>
#include <vector>

#include "partition/partitioner.hpp"

namespace bpart::partition {

/// How phase 2 pairs pieces within a combine round.
enum class PairingRule {
  /// The paper's rule (Fig. 9): sort by |V_i|, merge i-th smallest with
  /// i-th largest, relying on the inverse V/E proportionality.
  kRank,
  /// Greedy best-fit: take the piece with the most vertices and merge it
  /// with the unmatched piece that brings the pair closest to the ideal
  /// (2·mean V, 2·mean E). Strictly generalizes kRank and accepts more
  /// groups per layer, which keeps the cut lower (fewer re-streams).
  kBestFit,
  /// LPT-style bin packing into exactly N groups with *variable* group
  /// sizes: pieces are placed, heaviest first, into the group that stays
  /// closest to the ideal (V/N, E/N). Pairwise rules cannot balance a
  /// layer in which one piece alone carries a final part's edge budget
  /// (the weighted cap permits E up to slack·|E|/N per piece) — letting an
  /// edge-heavy piece form a singleton group while three vertex-heavy
  /// pieces share another solves exactly that case. Default.
  kGreedyBins,
};

struct BPartConfig {
  /// Eq. 1 weighting factor c; 1/2 weighs vertices and edges equally
  /// (the paper's empirically chosen default).
  double balance_weight_c = 0.5;

  /// Streaming-score parameters (shared with Fennel; see StreamConfig).
  double gamma = 1.5;
  double alpha = 0.0;       ///< 0 = auto-calibrate.
  double alpha_scale = 1.0; ///< Multiplier on the auto-calibrated α.
  /// Tighter than Fennel's default 1.2: phase-1 pieces are later combined,
  /// so keeping every piece's weighted load within 10% of the mean is what
  /// lets the combining phase hit the (0.1, 0.1) bias box in one or two
  /// layers (see bench/ablation_bpart_params for the sweep).
  double capacity_slack = 1.1;

  /// Pieces per final part in the first layer. The paper uses 2×N in layer
  /// one, 4×N_r in layer two, and so on; each layer doubles this factor.
  unsigned oversplit_factor = 2;

  /// Acceptance threshold τ: a combined subgraph is final when its vertex
  /// AND edge counts are within τ of the ideal per-part share. The paper
  /// reports final bias < 0.1, so τ = 0.1 is the default.
  double balance_threshold = 0.1;

  /// Safety bound on combination layers; the paper observes convergence in
  /// "two or three rounds". After the last layer all remaining subgraphs
  /// are accepted as-is.
  unsigned max_layers = 3;

  PairingRule pairing = PairingRule::kGreedyBins;

  /// Buffered-streaming pass-through (StreamConfig::batch_size): 0 keeps
  /// the sequential pass.
  std::uint32_t stream_batch = 0;

  /// Worker threads for the buffered pass (StreamConfig::threads); 0
  /// defers to $BPART_THREADS / hardware concurrency.
  unsigned stream_threads = 0;

  /// Prioritized-restream refinement passes run inside each layer's
  /// streaming pass (StreamConfig::refine_passes). The default keeps the
  /// auto rule: one restream whenever the buffered pass engages.
  unsigned refine_passes = StreamConfig::kRefineAuto;
};

/// Diagnostics of one partition run, exposed for tests/ablations: how many
/// layers ran and the per-layer acceptance counts.
struct BPartTrace {
  struct Layer {
    unsigned pieces = 0;          ///< Pieces produced by the streaming pass.
    unsigned combine_rounds = 0;  ///< Pairing rounds in this layer.
    unsigned accepted = 0;        ///< Groups finalized this layer.
    unsigned remaining = 0;       ///< Final parts still owed after the layer.
  };
  std::vector<Layer> layers;
};

class BPart final : public Partitioner {
 public:
  explicit BPart(BPartConfig cfg = {});

  [[nodiscard]] std::string name() const override { return "bpart"; }
  [[nodiscard]] Partition partition(const graph::Graph& g,
                                    PartId k) const override;

  /// Like partition() but also reports the multi-layer trace.
  [[nodiscard]] Partition partition_traced(const graph::Graph& g, PartId k,
                                           BPartTrace* trace) const;

  [[nodiscard]] const BPartConfig& config() const { return cfg_; }

 private:
  BPartConfig cfg_;
};

}  // namespace bpart::partition
