#include "exec/exec_config.hpp"

#include "util/env.hpp"

namespace bpart::exec {

unsigned ExecConfig::resolved_threads() const {
  if (threads != 0) return threads;
  return bpart::exec_threads();
}

}  // namespace bpart::exec
