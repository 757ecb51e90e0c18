#include "json_reader.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bpart::obs::json {

namespace {

[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("json::Value: not a ") + want);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(Value::Storage(parse_string()));
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(Value::Storage(true));
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(Value::Storage(false));
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value(Value::Storage(nullptr));
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.insert_or_assign(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Value(std::move(obj));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Value(std::move(arr));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Encode as UTF-8 (no surrogate-pair handling; the writer only
          // emits \u for control characters).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '-' || c == '+')
        ++pos_;
      else
        break;
    }
    if (pos_ == start) fail("expected a value");
    double d = 0;
    const auto r = std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (r.ec != std::errc{} || r.ptr != text_.data() + pos_)
      fail("malformed number");
    return Value(Value::Storage(d));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(v_);
}

double Value::as_double() const {
  if (!is_number()) type_error("number");
  return std::get<double>(v_);
}

std::int64_t Value::as_int() const {
  return static_cast<std::int64_t>(as_double());
}

std::uint64_t Value::as_uint() const {
  const double d = as_double();
  if (d < 0) type_error("non-negative number");
  return static_cast<std::uint64_t>(d);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(v_);
}

const Value::Array& Value::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<Array>(v_);
}

const Value::Object& Value::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<Object>(v_);
}

const Value& Value::at(const std::string& key) const {
  const Object& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end())
    throw std::runtime_error("json::Value: missing key '" + key + "'");
  return it->second;
}

bool Value::contains(const std::string& key) const {
  return is_object() && as_object().count(key) != 0;
}

const Value& Value::at(std::size_t index) const {
  const Array& arr = as_array();
  if (index >= arr.size())
    throw std::runtime_error("json::Value: index " + std::to_string(index) +
                             " out of range (size " +
                             std::to_string(arr.size()) + ")");
  return arr[index];
}

std::size_t Value::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  type_error("array or object");
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse(ss.str());
}

}  // namespace bpart::obs::json

namespace bpart::obs {

cluster::RunReport run_report_from_json(const json::Value& v) {
  cluster::RunReport r;
  r.num_machines =
      static_cast<cluster::MachineId>(v.at("num_machines").as_uint());
  for (const json::Value& itv : v.at("iterations").as_array()) {
    cluster::IterationReport it;
    it.duration_seconds = itv.at("duration_seconds").as_double();
    for (const json::Value& mv : itv.at("machines").as_array()) {
      cluster::MachineIterationStats m;
      m.work_items = mv.at("work_items").as_uint();
      m.messages_sent = mv.at("messages_sent").as_uint();
      m.messages_received = mv.at("messages_received").as_uint();
      m.bytes_sent = mv.at("bytes_sent").as_uint();
      m.bytes_received = mv.at("bytes_received").as_uint();
      m.compute_seconds = mv.at("compute_seconds").as_double();
      m.comm_seconds = mv.at("comm_seconds").as_double();
      m.wait_seconds = mv.at("wait_seconds").as_double();
      it.machines.push_back(m);
    }
    r.iterations.push_back(std::move(it));
  }
  return r;
}

}  // namespace bpart::obs
