// Minimal JSON writer for the observability layer: a streaming emitter with
// automatic comma management, used by the trace exporter (Chrome
// trace-event files), the metrics dump and the bench report sink. Not a
// general JSON library: UTF-8 passes through verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bpart::obs::json {

/// Escape a string for embedding between double quotes.
std::string escape(std::string_view s);

/// Streaming JSON emitter. Usage:
///   Writer w;
///   w.begin_object().key("n").value(3).key("xs").begin_array()
///    .value(1.5).value(2.5).end_array().end_object();
///   w.str();
/// Structural errors (value without key inside an object, unbalanced
/// end_*) are programming bugs and abort via BPART_CHECK.
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  Writer& key(std::string_view k);
  Writer& value(std::string_view v);
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(const std::string& v) { return value(std::string_view(v)); }
  Writer& value(double v);
  Writer& value(std::int64_t v);
  Writer& value(std::uint64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  Writer& value(bool v);
  Writer& null();

  /// Shorthand for key(k) followed by value(v).
  template <typename T>
  Writer& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  /// The document so far. Call after the outermost end_*.
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void pre_value();

  enum class Frame : std::uint8_t { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  bool need_comma_ = false;
  bool have_key_ = false;
};

}  // namespace bpart::obs::json
