// Tiny command-line option parser for benches and examples.
//
// Supports "--key=value", "--key value", and bare "--flag" (boolean true).
// Options come only from the command line; the environment takes no part.
// Numbers parse whole (parse_whole in util/env.hpp): "8x", " 64" or, for
// an integer, "1e6" warn and give the fallback.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bpart {

class Options {
 public:
  Options() = default;
  Options(int argc, const char* const* argv);

  /// Positional (non --key) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// Explicit set (used by tests and by benches that override defaults).
  void set(const std::string& key, const std::string& value);

 private:
  [[nodiscard]] std::optional<std::string> lookup(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace bpart
