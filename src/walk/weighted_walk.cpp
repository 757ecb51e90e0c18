#include "walk/weighted_walk.hpp"

#include "exec/scheduler.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace bpart::walk {

double weighted_walk_edge_weight(graph::VertexId v, graph::VertexId u,
                                 std::uint64_t weight_seed,
                                 std::uint32_t max_weight) {
  const std::uint64_t key = (static_cast<std::uint64_t>(v) << 32) | u;
  return static_cast<double>(splitmix64(key ^ weight_seed) % max_weight) +
         1.0;
}

WeightedRandomWalk::WeightedRandomWalk(const graph::Graph& g, Config cfg)
    : cfg_(cfg) {
  BPART_CHECK(cfg_.max_weight >= 1);
  const graph::VertexId n = g.num_vertices();
  tables_.resize(n);
  const unsigned threads = cfg_.exec.resolved_threads();
  BPART_SPAN("walk/alias_build", "vertices", static_cast<double>(n),
             "threads", static_cast<double>(threads));

  // Each vertex's table depends only on that vertex's weights, so building
  // into tables_[v] in place is race-free and the result is identical for
  // any schedule.
  auto build_range = [&](graph::VertexId lo, graph::VertexId hi,
                         std::vector<double>& weights) {
    for (graph::VertexId v = lo; v < hi; ++v) {
      const auto nbrs = g.out_neighbors(v);
      if (nbrs.empty()) continue;  // dead end: stays empty
      weights.clear();
      weights.reserve(nbrs.size());
      for (graph::VertexId u : nbrs)
        weights.push_back(weighted_walk_edge_weight(v, u, cfg_.weight_seed,
                                                    cfg_.max_weight));
      tables_[v] = AliasTable(weights);
    }
  };

  exec::Executor ex(threads);
  const auto plan = exec::ChunkScheduler::over_range(
      g.out_offsets(), 0, n, cfg_.exec.chunk_edges);
  std::vector<std::vector<double>> scratch(ex.threads());
  ex.run(plan, [&](unsigned w, std::uint32_t, std::uint32_t lo,
                   std::uint32_t hi) { build_range(lo, hi, scratch[w]); });
}

StepDecision WeightedRandomWalk::step(const WalkerState& state,
                                      const graph::Graph& g,
                                      StepRng& rng) const {
  if (state.steps_taken >= cfg_.length) return StepDecision::stop();
  BPART_CHECK_MSG(state.current < tables_.size(),
                  "weighted walk used with a different graph");
  const AliasTable& table = tables_[state.current];
  if (table.empty()) return StepDecision::stop();  // dead end
  const auto pick = static_cast<graph::EdgeId>(table.sample(rng));
  return StepDecision::move_to(g.out_neighbor(state.current, pick));
}

double WeightedRandomWalk::transition_probability(graph::VertexId v,
                                                  graph::EdgeId k) const {
  BPART_CHECK(v < tables_.size());
  BPART_CHECK(!tables_[v].empty());
  return tables_[v].probability(k);
}

}  // namespace bpart::walk
