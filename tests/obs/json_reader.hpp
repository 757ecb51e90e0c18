// JSON reader for the obs tests: a small recursive-descent parser that loads
// back what the obs writers emit (trace files, timelines, metrics dumps,
// bench reports), plus the run-report round trip. Not a general JSON
// library: no comments, no trailing commas, UTF-8 passed through verbatim.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "cluster/bsp.hpp"

namespace bpart::obs::json {

/// Parsed JSON value. Numbers are stored as double (plenty for trace
/// timestamps and report metrics; exact integers survive up to 2^53).
class Value {
 public:
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;
  using Storage =
      std::variant<std::nullptr_t, bool, double, std::string, Array, Object>;

  Value() : v_(nullptr) {}
  explicit Value(Storage v) : v_(std::move(v)) {}
  explicit Value(Object o) : v_(std::in_place_type<Object>, std::move(o)) {}
  explicit Value(Array a) : v_(std::in_place_type<Array>, std::move(a)) {}

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(v_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(v_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(v_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(v_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(v_); }

  /// Typed accessors; throw std::runtime_error on a type mismatch so test
  /// failures carry a message instead of a variant abort.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member access; throws if not an object or key missing.
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] bool contains(const std::string& key) const;
  /// Array element access; throws if not an array or out of range.
  [[nodiscard]] const Value& at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const;

 private:
  Storage v_;
};

/// Parse a complete JSON document. Throws std::runtime_error with the byte
/// offset of the first error; trailing non-whitespace is an error too.
Value parse(std::string_view text);

/// Parse the contents of a file.
Value parse_file(const std::string& path);

}  // namespace bpart::obs::json

namespace bpart::obs {

/// Inverse of write_run_report (totals are ignored — they are derived).
/// Throws std::runtime_error on schema mismatch.
cluster::RunReport run_report_from_json(const json::Value& v);

}  // namespace bpart::obs
