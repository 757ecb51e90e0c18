#include "util/options.hpp"

#include <system_error>

#include "util/env.hpp"
#include "util/logging.hpp"

namespace bpart {

namespace {

/// get_int/get_double's shared body: the whole value parsed by parse_whole,
/// or `fallback` with a warning when it is junk or out of range.
template <typename T>
T parse_or(const std::string& key, const std::optional<std::string>& v,
           T fallback) {
  if (!v) return fallback;
  T out = fallback;
  if (parse_whole(*v, out) != std::errc()) {
    LOG_WARN << "option --" << key << "=" << *v << " is not a number; using "
             << fallback;
  }
  return out;
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Options::has(const std::string& key) const {
  return values_.contains(key);
}

std::optional<std::string> Options::lookup(const std::string& key) const {
  if (const auto it = values_.find(key); it != values_.end()) return it->second;
  return std::nullopt;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  return lookup(key).value_or(fallback);
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  return parse_or(key, lookup(key), fallback);
}

double Options::get_double(const std::string& key, double fallback) const {
  return parse_or(key, lookup(key), fallback);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto v = lookup(key);
  if (!v) return fallback;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

void Options::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

}  // namespace bpart
