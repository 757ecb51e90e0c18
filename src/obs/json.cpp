#include "obs/json.hpp"

#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace bpart::obs::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Writer::pre_value() {
  if (!stack_.empty() && stack_.back() == Frame::kObject) {
    BPART_CHECK_MSG(have_key_, "json::Writer: value inside object needs key()");
    have_key_ = false;
    return;  // key() already placed the comma and the colon
  }
  if (need_comma_) out_ += ',';
}

Writer& Writer::begin_object() {
  pre_value();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  need_comma_ = false;
  return *this;
}

Writer& Writer::end_object() {
  BPART_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                  "json::Writer: end_object outside object");
  BPART_CHECK_MSG(!have_key_, "json::Writer: dangling key()");
  out_ += '}';
  stack_.pop_back();
  need_comma_ = true;
  return *this;
}

Writer& Writer::begin_array() {
  pre_value();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  need_comma_ = false;
  return *this;
}

Writer& Writer::end_array() {
  BPART_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kArray,
                  "json::Writer: end_array outside array");
  out_ += ']';
  stack_.pop_back();
  need_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  BPART_CHECK_MSG(!stack_.empty() && stack_.back() == Frame::kObject,
                  "json::Writer: key() outside object");
  BPART_CHECK_MSG(!have_key_, "json::Writer: key() twice");
  if (need_comma_) out_ += ',';
  out_ += '"';
  out_ += escape(k);
  out_ += "\":";
  have_key_ = true;
  need_comma_ = false;
  return *this;
}

Writer& Writer::value(std::string_view v) {
  pre_value();
  out_ += '"';
  out_ += escape(v);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

Writer& Writer::value(double v) {
  pre_value();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no NaN/Inf
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  need_comma_ = true;
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  pre_value();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  pre_value();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

Writer& Writer::value(bool v) {
  pre_value();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

Writer& Writer::null() {
  pre_value();
  out_ += "null";
  need_comma_ = true;
  return *this;
}

}  // namespace bpart::obs::json
