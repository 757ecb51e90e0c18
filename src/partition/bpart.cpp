#include "partition/bpart.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace bpart::partition {

namespace {

/// Vertex/edge totals of one piece (or combined group of pieces).
struct PieceStat {
  std::vector<graph::VertexId> members;  ///< Vertices of the piece/group.
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;  ///< Sum of out-degrees.
};

PieceStat merge(PieceStat a, PieceStat b) {
  PieceStat merged;
  merged.vertices = a.vertices + b.vertices;
  merged.edges = a.edges + b.edges;
  merged.members = std::move(a.members);
  merged.members.insert(merged.members.end(), b.members.begin(),
                        b.members.end());
  return merged;
}

/// One pairing round of Fig. 9: sort by vertex count, merge i-th smallest
/// with i-th largest. `pieces.size()` must be even.
std::vector<PieceStat> combine_round_rank(std::vector<PieceStat> pieces) {
  BPART_CHECK(pieces.size() % 2 == 0);
  std::sort(pieces.begin(), pieces.end(),
            [](const PieceStat& a, const PieceStat& b) {
              return a.vertices < b.vertices;
            });
  const std::size_t half = pieces.size() / 2;
  std::vector<PieceStat> combined;
  combined.reserve(half);
  for (std::size_t i = 0; i < half; ++i)
    combined.push_back(merge(std::move(pieces[i]),
                             std::move(pieces[pieces.size() - 1 - i])));
  return combined;
}

/// Greedy best-fit round: repeatedly take the unmatched piece with the most
/// vertices and pair it with the unmatched piece bringing the pair closest
/// to (2·mean V, 2·mean E). O(p^2) with p <= a few dozen pieces.
std::vector<PieceStat> combine_round_best_fit(std::vector<PieceStat> pieces) {
  BPART_CHECK(pieces.size() % 2 == 0);
  double mean_v = 0, mean_e = 0;
  for (const PieceStat& p : pieces) {
    mean_v += static_cast<double>(p.vertices);
    mean_e += static_cast<double>(p.edges);
  }
  mean_v /= static_cast<double>(pieces.size());
  mean_e /= static_cast<double>(pieces.size());
  const double target_v = 2.0 * mean_v;
  const double target_e = 2.0 * mean_e;
  auto deviation = [&](const PieceStat& a, const PieceStat& b) {
    const double dv =
        std::abs(static_cast<double>(a.vertices + b.vertices) - target_v) /
        std::max(target_v, 1.0);
    const double de =
        std::abs(static_cast<double>(a.edges + b.edges) - target_e) /
        std::max(target_e, 1.0);
    return std::max(dv, de);
  };

  std::sort(pieces.begin(), pieces.end(),
            [](const PieceStat& a, const PieceStat& b) {
              return a.vertices > b.vertices;
            });
  std::vector<bool> matched(pieces.size(), false);
  std::vector<PieceStat> combined;
  combined.reserve(pieces.size() / 2);
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (matched[i]) continue;
    matched[i] = true;
    std::size_t best = pieces.size();
    double best_dev = std::numeric_limits<double>::infinity();
    for (std::size_t j = i + 1; j < pieces.size(); ++j) {
      if (matched[j]) continue;
      const double dev = deviation(pieces[i], pieces[j]);
      if (dev < best_dev) {
        best_dev = dev;
        best = j;
      }
    }
    BPART_CHECK(best < pieces.size());
    matched[best] = true;
    combined.push_back(merge(std::move(pieces[i]), std::move(pieces[best])));
  }
  return combined;
}

/// Collect the pieces of a streaming sub-partition restricted to `subset`.
std::vector<PieceStat> collect_pieces(const graph::Graph& g,
                                      const Partition& sub, PartId pieces,
                                      std::span<const graph::VertexId> subset) {
  std::vector<PieceStat> stats(pieces);
  for (graph::VertexId v : subset) {
    const PartId piece = sub[v];
    BPART_CHECK(piece != kUnassigned && piece < pieces);
    PieceStat& s = stats[piece];
    s.members.push_back(v);
    s.vertices += 1;
    s.edges += g.out_degree(v);
  }
  return stats;
}

/// LPT bin packing into exactly `bins` variable-size groups. Pieces are
/// placed heaviest-first into the group minimizing the resulting maximum
/// deviation from the ideal (ΣV/bins, ΣE/bins).
std::vector<PieceStat> combine_greedy_bins(std::vector<PieceStat> pieces,
                                           std::size_t bins) {
  BPART_CHECK(bins >= 1 && bins <= pieces.size());
  double total_v = 0, total_e = 0;
  for (const PieceStat& p : pieces) {
    total_v += static_cast<double>(p.vertices);
    total_e += static_cast<double>(p.edges);
  }
  const double ideal_v = std::max(total_v / static_cast<double>(bins), 1.0);
  const double ideal_e = std::max(total_e / static_cast<double>(bins), 1.0);
  auto load = [&](const PieceStat& p) {
    return std::max(static_cast<double>(p.vertices) / ideal_v,
                    static_cast<double>(p.edges) / ideal_e);
  };
  std::sort(pieces.begin(), pieces.end(),
            [&](const PieceStat& a, const PieceStat& b) {
              return load(a) > load(b);
            });

  std::vector<PieceStat> groups(bins);
  for (PieceStat& piece : pieces) {
    std::size_t best = 0;
    double best_dev = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < bins; ++b) {
      const double dv =
          (static_cast<double>(groups[b].vertices + piece.vertices)) /
          ideal_v;
      const double de =
          (static_cast<double>(groups[b].edges + piece.edges)) / ideal_e;
      const double dev = std::max(dv, de);
      if (dev < best_dev) {
        best_dev = dev;
        best = b;
      }
    }
    groups[best].vertices += piece.vertices;
    groups[best].edges += piece.edges;
    groups[best].members.insert(groups[best].members.end(),
                                piece.members.begin(), piece.members.end());
  }
  return groups;
}

}  // namespace

BPart::BPart(BPartConfig cfg) : cfg_(cfg) {
  BPART_CHECK_MSG(cfg_.oversplit_factor >= 2 &&
                      (cfg_.oversplit_factor & (cfg_.oversplit_factor - 1)) == 0,
                  "oversplit_factor must be a power of two >= 2");
  BPART_CHECK(cfg_.balance_threshold > 0.0);
  BPART_CHECK(cfg_.max_layers >= 1);
}

Partition BPart::partition(const graph::Graph& g, PartId k) const {
  return partition_traced(g, k, nullptr);
}

Partition BPart::partition_traced(const graph::Graph& g, PartId k,
                                  BPartTrace* trace) const {
  BPART_CHECK(k >= 1);
  BPART_SPAN("partition/bpart", "vertices",
             static_cast<double>(g.num_vertices()), "parts",
             static_cast<double>(k));
  const graph::VertexId n = g.num_vertices();
  Partition result(n, k);
  if (n == 0) return result;
  if (k == 1) {
    for (graph::VertexId v = 0; v < n; ++v) result.assign(v, 0);
    return result;
  }

  // Ideal per-part shares; acceptance is judged against these global means
  // so every layer aims at the same final target.
  const double ideal_vertices = static_cast<double>(n) / k;
  const double ideal_edges = static_cast<double>(g.num_edges()) / k;
  const double tau = cfg_.balance_threshold;
  auto balanced = [&](const PieceStat& s) {
    const double dv =
        std::abs(static_cast<double>(s.vertices) - ideal_vertices);
    const double de = std::abs(static_cast<double>(s.edges) - ideal_edges);
    return dv <= tau * ideal_vertices && de <= tau * ideal_edges;
  };

  StreamConfig stream_cfg;
  stream_cfg.balance_weight_c = cfg_.balance_weight_c;
  stream_cfg.gamma = cfg_.gamma;
  stream_cfg.alpha = cfg_.alpha;
  stream_cfg.alpha_scale = cfg_.alpha_scale;
  stream_cfg.capacity_slack = cfg_.capacity_slack;
  stream_cfg.batch_size = cfg_.stream_batch;
  stream_cfg.threads = cfg_.stream_threads;
  stream_cfg.refine_passes = cfg_.refine_passes;

  std::vector<graph::VertexId> remaining(n);
  std::iota(remaining.begin(), remaining.end(), graph::VertexId{0});

  PartId next_final_part = 0;  // Final part ids are handed out on acceptance.
  unsigned oversplit = cfg_.oversplit_factor;

  for (unsigned layer = 1; layer <= cfg_.max_layers && !remaining.empty();
       ++layer) {
    BPART_SPAN("partition/combine_layer", "layer", static_cast<double>(layer),
               "remaining", static_cast<double>(remaining.size()));
    const PartId parts_owed = k - next_final_part;
    BPART_CHECK(parts_owed >= 1);

    // Over-split the remaining graph. Cap pieces at the number of remaining
    // vertices (tiny inputs), keeping the count even for pairing.
    std::uint64_t pieces64 =
        static_cast<std::uint64_t>(parts_owed) * oversplit;
    if (pieces64 > remaining.size())
      pieces64 = std::max<std::uint64_t>(2, remaining.size() & ~1ULL);
    const auto pieces = static_cast<PartId>(pieces64);

    const Partition sub =
        greedy_stream_partition(g, remaining, pieces, stream_cfg);
    std::vector<PieceStat> groups = collect_pieces(g, sub, pieces, remaining);

    // Pair extremes until `parts_owed` groups remain (Fig. 9's rounds).
    unsigned rounds = 0;
    if (cfg_.pairing == PairingRule::kGreedyBins) {
      if (groups.size() > parts_owed) {
        groups = combine_greedy_bins(std::move(groups), parts_owed);
        rounds = 1;
      }
    } else {
      while (groups.size() > parts_owed && groups.size() % 2 == 0) {
        groups = cfg_.pairing == PairingRule::kRank
                     ? combine_round_rank(std::move(groups))
                     : combine_round_best_fit(std::move(groups));
        ++rounds;
      }
    }

    // Accept balanced groups; the rest feed the next layer. On the final
    // layer everything is accepted — a bounded-effort cutoff the paper's
    // "two or three rounds suffice" observation justifies. A lone group is
    // also always accepted: re-partitioning one part cannot improve it.
    //
    // Drift guard: accepting many groups that each sit τ *below* ideal
    // silently pushes all the excess into the final remainder, so beyond
    // per-group balance we require that the not-yet-accepted mass still
    // averages within τ per owed part. Groups are considered best-first so
    // the guard rejects the worst fits, not arbitrary ones.
    const bool last_layer = layer == cfg_.max_layers;
    std::sort(groups.begin(), groups.end(),
              [&](const PieceStat& a, const PieceStat& b) {
                auto dev = [&](const PieceStat& s) {
                  return std::max(
                      std::abs(static_cast<double>(s.vertices) -
                               ideal_vertices) /
                          ideal_vertices,
                      std::abs(static_cast<double>(s.edges) - ideal_edges) /
                          std::max(ideal_edges, 1.0));
                };
                return dev(a) < dev(b);
              });
    std::uint64_t rem_vertices = 0, rem_edges = 0;
    for (const PieceStat& grp : groups) {
      rem_vertices += grp.vertices;
      rem_edges += grp.edges;
    }
    unsigned accepted = 0;
    for (PieceStat& grp : groups) {
      const unsigned parts_after =
          k - next_final_part > 0 ? k - next_final_part - 1 : 0;
      auto remainder_in_band = [&] {
        if (parts_after == 0) return grp.vertices == rem_vertices;
        const double per_part_v =
            static_cast<double>(rem_vertices - grp.vertices) / parts_after;
        const double per_part_e =
            static_cast<double>(rem_edges - grp.edges) / parts_after;
        return std::abs(per_part_v - ideal_vertices) <= tau * ideal_vertices &&
               std::abs(per_part_e - ideal_edges) <=
                   tau * std::max(ideal_edges, 1.0);
      };
      const bool accept =
          next_final_part < k &&
          (last_layer || groups.size() == 1 ||
           (balanced(grp) && remainder_in_band()));
      if (accept) {
        for (graph::VertexId v : grp.members) result.assign(v, next_final_part);
        ++next_final_part;
        ++accepted;
        rem_vertices -= grp.vertices;
        rem_edges -= grp.edges;
      }
    }
    if (trace != nullptr) {
      trace->layers.push_back({pieces, rounds, accepted,
                               static_cast<unsigned>(k - next_final_part)});
    }
    LOG_DEBUG << "bpart layer " << layer << ": pieces=" << pieces
              << " rounds=" << rounds << " accepted=" << accepted
              << " remaining_parts=" << (k - next_final_part);

    // The groups cover `remaining` exactly, so the rejected ones are the
    // vertices `result` still reads unassigned; one ascending scan streams
    // them in id order next layer.
    remaining.clear();
    for (graph::VertexId v = 0; v < n; ++v)
      if (result[v] == kUnassigned) remaining.push_back(v);
    oversplit *= 2;
  }

  // Degenerate inputs (n within a small multiple of k) can exhaust part ids
  // before the layer loop drains `remaining`: spread any leftovers across
  // the least-loaded parts so the result is always fully assigned. Empty
  // parts are legal when n < k.
  if (!remaining.empty()) {
    auto vcounts = result.vertex_counts();
    for (graph::VertexId v : remaining) {
      const auto least = static_cast<PartId>(
          std::min_element(vcounts.begin(), vcounts.end()) - vcounts.begin());
      result.assign(v, least);
      ++vcounts[least];
    }
  }
  BPART_CHECK_MSG(result.fully_assigned(), "bpart left vertices unassigned");
  return result;
}

}  // namespace bpart::partition
