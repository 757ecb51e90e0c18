// Bit-identity suite for the streaming partitioners. The sequential pass
// keeps each part's Eq. 1 weight and penalty cached and refreshes only the
// chosen part per assignment; it must produce exactly the partition of the
// textbook pass that recomputes every part's W_i and α·γ·W_i^(γ−1) for every
// vertex. `reference_stream` below is that textbook pass: a subset bitset,
// a per-vertex rescore of every part and a touched-list reset. The hash
// pins fix the default BPart, Fennel and LDG partitions, the buffered BPart
// and the refined Fennel, so a change to any of their loops moves a hash.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "partition/bpart.hpp"
#include "partition/fennel.hpp"
#include "partition/ldg.hpp"
#include "partition/partitioner.hpp"
#include "test_graphs.hpp"
#include "util/hash.hpp"

namespace bpart::partition {
namespace {

using graph::Graph;
using testing::scale_free_graph;
using testing::social_graph;

/// The sequential streaming pass with every part rescored from scratch per
/// vertex: the definition the cached pass must reproduce bit for bit.
Partition reference_stream(const Graph& g,
                           const std::vector<graph::VertexId>& verts,
                           PartId k, const StreamConfig& cfg) {
  Partition p(g.num_vertices(), k);
  std::vector<bool> in_subset(g.num_vertices(), false);
  std::uint64_t m_subset = 0;
  for (graph::VertexId v : verts) {
    in_subset[v] = true;
    m_subset += g.out_degree(v);
  }
  const auto n_subset = static_cast<double>(verts.size());
  const double c = cfg.balance_weight_c;
  const double avg_degree =
      m_subset == 0 ? 1.0 : static_cast<double>(m_subset) / n_subset;
  const double gamma = cfg.gamma;
  const double alpha = cfg.alpha > 0.0
                           ? cfg.alpha
                           : cfg.alpha_scale *
                                 std::sqrt(static_cast<double>(k)) *
                                 static_cast<double>(m_subset) /
                                 std::pow(n_subset, 1.5);
  const double capacity =
      cfg.capacity_slack > 0.0
          ? cfg.capacity_slack * n_subset / static_cast<double>(k)
          : std::numeric_limits<double>::infinity();
  auto weight = [&](std::uint64_t vertices, std::uint64_t edges) {
    return c * static_cast<double>(vertices) +
           (1.0 - c) * static_cast<double>(edges) / avg_degree;
  };
  auto penalty = [&](double w) {
    return alpha * gamma * std::pow(w, gamma - 1.0);
  };

  std::vector<std::uint64_t> part_vertices(k, 0);
  std::vector<std::uint64_t> part_edges(k, 0);
  std::vector<std::uint32_t> overlap(k, 0);
  std::vector<PartId> touched;
  for (graph::VertexId v : verts) {
    g.for_each_neighbor(v, [&](graph::VertexId u, unsigned times) {
      if (!in_subset[u]) return;
      const PartId pu = p[u];
      if (pu == kUnassigned) return;
      if (overlap[pu] == 0) touched.push_back(pu);
      overlap[pu] += times;
    });
    double best_score = -std::numeric_limits<double>::infinity();
    PartId best = kUnassigned;
    double min_weight = std::numeric_limits<double>::infinity();
    PartId least_loaded = 0;
    for (PartId i = 0; i < k; ++i) {
      const double w = weight(part_vertices[i], part_edges[i]);
      if (w < min_weight) {
        min_weight = w;
        least_loaded = i;
      }
      if (w >= capacity) continue;
      const double score = static_cast<double>(overlap[i]) - penalty(w);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == kUnassigned) best = least_loaded;
    p.assign(v, best);
    ++part_vertices[best];
    part_edges[best] += g.out_degree(v);
    for (PartId t : touched) overlap[t] = 0;
    touched.clear();
  }
  return p;
}

std::uint64_t assignment_hash(const Partition& p) {
  const std::span<const PartId> a = p.assignment();
  return hash64(a.data(), a.size_bytes());
}

TEST(StreamIdentity, SequentialPassMatchesPerVertexRecompute) {
  // All vertices and an every-other-vertex subset (neighbors outside the
  // subset must not count); at the default slack and at slack 1.0, where
  // parts hit the cap and the least-loaded fallback runs; Fennel's c = 1
  // and BPart's c = 1/2.
  for (const Graph& g : {social_graph(), scale_free_graph()}) {
    std::vector<graph::VertexId> all(g.num_vertices());
    std::iota(all.begin(), all.end(), graph::VertexId{0});
    std::vector<graph::VertexId> evens;
    for (graph::VertexId v = 0; v < g.num_vertices(); v += 2)
      evens.push_back(v);
    for (const auto* verts : {&all, &evens}) {
      for (const PartId k : {2u, 8u, 32u}) {
        for (const double slack : {StreamConfig{}.capacity_slack, 1.0}) {
          for (const double c : {1.0, 0.5}) {
            SCOPED_TRACE(::testing::Message()
                         << g.num_vertices() << " vertices, subset "
                         << verts->size() << ", k=" << k << ", slack="
                         << slack << ", c=" << c);
            StreamConfig cfg;
            cfg.balance_weight_c = c;
            cfg.capacity_slack = slack;
            const Partition want = reference_stream(g, *verts, k, cfg);
            const Partition got = greedy_stream_partition(g, *verts, k, cfg);
            for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
              ASSERT_EQ(got[v], want[v]) << "vertex " << v;
          }
        }
      }
    }
  }
}

/// Assignment hashes on social_graph() at k = 2, 8 and 32.
void expect_hashes(const Partitioner& algo,
                   const std::uint64_t (&want)[3]) {
  const Graph g = social_graph();
  const PartId ks[3] = {2, 8, 32};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(::testing::Message() << algo.name() << " k=" << ks[i]);
    const Partition p = algo.partition(g, ks[i]);
    EXPECT_EQ(assignment_hash(p), want[i])
        << std::hex << "got 0x" << assignment_hash(p);
  }
}

TEST(StreamIdentity, BPartHashesPinned) {
  expect_hashes(BPart(), {0xe468274f1950c702ULL, 0x5bcc705f20cde3cdULL,
                          0x8f87d44eb832acb4ULL});
}

TEST(StreamIdentity, FennelHashesPinned) {
  expect_hashes(Fennel(), {0x7017cb2f1ff2a782ULL, 0xd380aea3cc52f518ULL,
                           0x7e6879d2f2cd6e4fULL});
}

TEST(StreamIdentity, BufferedBPartHashesPinned) {
  BPartConfig cfg;
  cfg.stream_batch = 1024;
  expect_hashes(BPart(cfg), {0xa5710e60df78d5e0ULL, 0xe1ec70f5f5b498a4ULL,
                             0xb23fdda67db8cf3eULL});
}

TEST(StreamIdentity, RefinedFennelHashesPinned) {
  StreamConfig cfg;
  cfg.refine_passes = 1;
  expect_hashes(Fennel(cfg), {0x8f98abb386a59586ULL, 0xb7d1183185a991b6ULL,
                              0x027cbc951a25ae50ULL});
}

TEST(StreamIdentity, LdgHashesPinned) {
  expect_hashes(Ldg(), {0x45d8b94e62f164f8ULL, 0xa92579c514905c1dULL,
                        0xbf553aa40e1be659ULL});
}

}  // namespace
}  // namespace bpart::partition
