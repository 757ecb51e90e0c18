// Knobs of the intra-machine parallel execution core.
//
// Every engine- and dist-level app carries an ExecConfig and runs through
// the exec core; the knobs only pick how many workers share each chunk
// plan. The zero value means "consult the environment": $BPART_EXEC_THREADS
// picks the worker count (default 1, which executes inline), and
// $BPART_EXEC_CHUNK the edges-per-chunk target of the scheduler. Results
// are bit-identical at every worker count, so the knobs move speed only.
// Tests and benches set the fields explicitly.
#pragma once

#include <cstdint>

namespace bpart::exec {

struct ExecConfig {
  /// Exec-core workers. 0 = $BPART_EXEC_THREADS, or 1 when that is unset.
  unsigned threads = 0;
  /// Edges per scheduler chunk. 0 = $BPART_EXEC_CHUNK (default 4096).
  std::uint32_t chunk_edges = 0;

  /// Workers to run with, always >= 1 (1 executes inline, still through
  /// the scheduler).
  [[nodiscard]] unsigned resolved_threads() const;
  [[nodiscard]] std::uint32_t resolved_chunk_edges() const;
};

}  // namespace bpart::exec
