// Ghost-slot accumulator with an explicit dirty list.
//
// A superstep's boundary updates combine locally in the ghost slots
// (Gemini's mirror-side aggregation) and flush as ONE message per touched
// ghost rather than one per cut edge — this is where partitioning's
// communication savings actually materialize in the runtime.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace bpart::dist {

template <typename Val>
class GhostBuffer {
 public:
  /// Size the buffer and set every slot (and the post-flush value) to
  /// `idle`.
  void reset(std::size_t num_ghosts, Val idle) {
    idle_ = idle;
    val_.assign(num_ghosts, idle);
    dirty_.assign(num_ghosts, 0);
    dirty_list_.clear();
  }

  /// Size the buffer with per-slot initial values (e.g. CC seeds each ghost
  /// slot with the ghost's own label); `idle` is only used if a flush
  /// resets values.
  void reset(std::vector<Val> init, Val idle) {
    idle_ = idle;
    val_ = std::move(init);
    dirty_.assign(val_.size(), 0);
    dirty_list_.clear();
  }

  /// Sum-combine (PageRank-style contributions). Marks the slot dirty.
  void add(std::size_t ghost, Val v) {
    touch(ghost);
    val_[ghost] += v;
  }

  /// Min-combine; marks dirty and returns true when the slot improved.
  bool combine_min(std::size_t ghost, Val v) {
    if (v >= val_[ghost]) return false;
    touch(ghost);
    val_[ghost] = v;
    return true;
  }

  /// Min-update without marking dirty — for values learned FROM the slot's
  /// owner, which would be pointless to echo back. Returns whether the
  /// slot improved.
  bool refresh_min(std::size_t ghost, Val v) {
    if (v >= val_[ghost]) return false;
    val_[ghost] = v;
    return true;
  }

  [[nodiscard]] Val value(std::size_t ghost) const { return val_[ghost]; }

  /// Visit every dirty slot as f(ghost, value), clear the dirty marks, and
  /// return the slots to idle — unless keep_values (CC keeps the flushed
  /// label cached in the slot).
  template <typename F>
  void flush(F&& f, bool keep_values = false) {
    for (graph::VertexId ghost : dirty_list_) {
      f(ghost, val_[ghost]);
      dirty_[ghost] = 0;
      if (!keep_values) val_[ghost] = idle_;
    }
    dirty_list_.clear();
  }

 private:
  void touch(std::size_t ghost) {
    if (!dirty_[ghost]) {
      dirty_[ghost] = 1;
      dirty_list_.push_back(static_cast<graph::VertexId>(ghost));
    }
  }

  Val idle_{};
  std::vector<Val> val_;
  std::vector<std::uint8_t> dirty_;
  std::vector<graph::VertexId> dirty_list_;
};

}  // namespace bpart::dist
