// Knobs of the intra-machine parallel execution core.
//
// Every engine- and dist-level app carries an ExecConfig and runs through
// the exec core; the knobs only pick how many workers share each chunk
// plan and how large its chunks are. A thread count of 0 means "consult
// the environment": $BPART_EXEC_THREADS picks the worker count (default 1,
// which executes inline). Results are bit-identical at every worker count,
// so the thread knob moves speed only. Tests and benches set the fields
// explicitly.
#pragma once

#include <cstdint>

namespace bpart::exec {

struct ExecConfig {
  /// Exec-core workers. 0 = $BPART_EXEC_THREADS, or 1 when that is unset.
  unsigned threads = 0;
  /// Edges per scheduler chunk (> 0). Chunk boundaries depend on it, so a
  /// different size may regroup floating-point sums; the worker count never
  /// does.
  std::uint32_t chunk_edges = 4096;

  /// Workers to run with, always >= 1 (1 executes inline, still through
  /// the scheduler).
  [[nodiscard]] unsigned resolved_threads() const;
};

}  // namespace bpart::exec
