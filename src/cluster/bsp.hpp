// Simulated-time BSP cluster (Fig. 1 of the paper).
//
// A graph application drives the simulation iteration by iteration: it
// reports each machine's work items and each cross-machine message as they
// happen, and the simulation derives per-iteration computation time,
// per-machine waiting time (time spent idle until the slowest machine
// finishes — the paper's "synchronization overhead") and communication
// volume. See cost_model.hpp for why this substitutes for a real testbed.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cost_model.hpp"

namespace bpart::cluster {

using MachineId = std::uint32_t;

/// Per-machine measurements within one iteration.
struct MachineIterationStats {
  std::uint64_t work_items = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  /// Payload bytes shipped/received. Filled by the measured runtime
  /// (dist::Runtime); the cost-model simulation leaves them 0.
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  double compute_seconds = 0;  ///< Work converted by the cost model.
  double comm_seconds = 0;     ///< Message send cost.
  double wait_seconds = 0;     ///< Idle until the slowest machine finished.
};

/// One BSP superstep across all machines.
struct IterationReport {
  std::vector<MachineIterationStats> machines;
  double duration_seconds = 0;  ///< Barrier-to-barrier (slowest machine).

  [[nodiscard]] std::uint64_t total_work() const;
  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] double total_wait_seconds() const;
  /// Per-machine compute seconds — the series of the paper's Fig. 12.
  [[nodiscard]] std::vector<double> compute_seconds_per_machine() const;
};

/// Full application run.
struct RunReport {
  std::vector<IterationReport> iterations;
  MachineId num_machines = 0;

  [[nodiscard]] double total_seconds() const;
  [[nodiscard]] double total_wait_seconds() const;
  /// The paper's Fig. 13 metric: Σ wait over all machines and iterations
  /// divided by (num_machines × total running time).
  [[nodiscard]] double wait_ratio() const;
  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] std::uint64_t total_work() const;
  /// Payload bytes shipped (measured runtimes only; 0 under the cost model).
  [[nodiscard]] std::uint64_t total_bytes_sent() const;
  /// Work items per machine summed over iterations (paper Fig. 4 series).
  [[nodiscard]] std::vector<std::uint64_t> work_per_machine() const;
  /// Per-machine compute seconds summed over iterations — max/avg of this
  /// series is the compute-skew metric of Figs. 12/15.
  [[nodiscard]] std::vector<double> compute_seconds_per_machine() const;
};

/// Accounting core. Protocol per iteration:
///   begin_iteration(); add_work()/add_message()...; end_iteration();
/// then finish() once to obtain the report.
class BspSimulation {
 public:
  BspSimulation(MachineId num_machines, CostModel model = {});

  [[nodiscard]] MachineId num_machines() const { return num_machines_; }

  void begin_iteration();
  void add_work(MachineId machine, std::uint64_t items = 1);
  /// A message src -> dst. Local (src == dst) messages cost nothing and are
  /// not counted: in Gemini/KnightKing they are plain memory writes.
  void add_message(MachineId src, MachineId dst, std::uint64_t count = 1);
  void end_iteration();

  [[nodiscard]] RunReport finish();

 private:
  MachineId num_machines_;
  CostModel model_;
  bool in_iteration_ = false;
  std::vector<MachineIterationStats> current_;
  RunReport report_;
};

}  // namespace bpart::cluster
