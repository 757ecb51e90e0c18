// Weighted random walk: per-edge weights sampled via per-vertex alias
// tables, the KnightKing mechanism for static weighted graphs.
//
// The paper's datasets are unweighted; to exercise the weighted code path
// deterministically we derive edge weights by hashing the endpoint pair
// (same trick as engine::sssp). Alias construction is done once per graph
// and shared by all walkers — the expensive step KnightKing amortizes the
// same way.
#pragma once

#include <vector>

#include "walk/alias.hpp"
#include "walk/walk_engine.hpp"

namespace bpart::walk {

/// Deterministic weight of out-edge (v, u); uniform in [1, max_weight].
double weighted_walk_edge_weight(graph::VertexId v, graph::VertexId u,
                                 std::uint64_t weight_seed,
                                 std::uint32_t max_weight);

struct WeightedWalkConfig {
  unsigned length = 8;
  std::uint64_t weight_seed = 7;
  std::uint32_t max_weight = 16;
  /// Exec-core workers that build the per-vertex alias tables over
  /// edge-balanced vertex chunks (each table depends only on its own
  /// vertex, so the result is identical at any thread count).
  exec::ExecConfig exec;
};

class WeightedRandomWalk final : public WalkApp {
 public:
  using Config = WeightedWalkConfig;

  /// Builds one alias table per vertex (O(E) total).
  explicit WeightedRandomWalk(const graph::Graph& g, Config cfg = {});

  [[nodiscard]] std::string name() const override { return "weighted-rw"; }
  [[nodiscard]] StepDecision step(const WalkerState& state,
                                  const graph::Graph& g,
                                  StepRng& rng) const override;

  /// Exact transition probability v -> its k-th out-neighbor (for tests).
  [[nodiscard]] double transition_probability(graph::VertexId v,
                                              graph::EdgeId k) const;

 private:
  Config cfg_;
  std::vector<AliasTable> tables_;  // one per vertex; empty for dead ends
};

}  // namespace bpart::walk
