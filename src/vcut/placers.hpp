// The streaming edge-placer family.
//
//  * RandomEdgePlacement — hash of the edge (the PowerGraph default).
//  * DegreeBasedHashing (DBH) [Xie et al., NeurIPS'14] — hash of the
//    lower-degree endpoint, replicating hubs preferentially.
//  * Hdrf [Petroni et al., CIKM'15] — streaming scores that replicate the
//    highest-degree vertex first, with a balance term.
//  * BufferedHdrf — HDRF in scoring batches: every batch scores in parallel
//    against the state frozen at the batch boundary, then commits in stream
//    order with a hard capacity cap. Results are bit-identical across
//    thread counts (DESIGN.md §12).
//
// The hashed placers take an explicit seed; registry.hpp plumbs
// $BPART_SEED so runs are reproducible like every vertex partitioner.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "vcut/edge_partition.hpp"

namespace bpart::vcut {

class EdgePartitioner {
 public:
  virtual ~EdgePartitioner() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual EdgePartition partition(const graph::Graph& g,
                                                PartId k) const = 0;
};

class RandomEdgePlacement final : public EdgePartitioner {
 public:
  explicit RandomEdgePlacement(std::uint64_t seed) : seed_(seed) {}
  [[nodiscard]] std::string name() const override { return "random-edge"; }
  [[nodiscard]] EdgePartition partition(const graph::Graph& g,
                                        PartId k) const override;

 private:
  std::uint64_t seed_;
};

class DegreeBasedHashing final : public EdgePartitioner {
 public:
  explicit DegreeBasedHashing(std::uint64_t seed) : seed_(seed) {}
  [[nodiscard]] std::string name() const override { return "dbh"; }
  [[nodiscard]] EdgePartition partition(const graph::Graph& g,
                                        PartId k) const override;

 private:
  std::uint64_t seed_;
};

struct HdrfConfig {
  double lambda = 1.0;    ///< Weight of the balance term.
  double epsilon = 1e-3;  ///< Stabilizer in the balance denominator.
};

class Hdrf final : public EdgePartitioner {
 public:
  explicit Hdrf(HdrfConfig cfg = {}) : cfg_(cfg) {}
  [[nodiscard]] std::string name() const override { return "hdrf"; }
  [[nodiscard]] EdgePartition partition(const graph::Graph& g,
                                        PartId k) const override;

 private:
  HdrfConfig cfg_;
};

struct BufferedHdrfConfig {
  HdrfConfig hdrf;
  /// Pairs per scoring batch (> 0). The batch size keys which pairs see
  /// the same frozen snapshot, so it may change the assignment; the thread
  /// count never does.
  std::uint32_t batch_size = 4096;
  /// Scoring workers; 0 reads $BPART_THREADS / hardware concurrency.
  unsigned threads = 0;
  /// Hard per-part pair-load cap as a multiple of ceil(pairs / k); commits
  /// that would overflow fall back to the least-loaded part.
  double capacity_slack = 1.05;
};

class BufferedHdrf final : public EdgePartitioner {
 public:
  explicit BufferedHdrf(BufferedHdrfConfig cfg = {}) : cfg_(cfg) {}
  [[nodiscard]] std::string name() const override { return "hdrf-buffered"; }
  [[nodiscard]] EdgePartition partition(const graph::Graph& g,
                                        PartId k) const override;

 private:
  BufferedHdrfConfig cfg_;
};

}  // namespace bpart::vcut
