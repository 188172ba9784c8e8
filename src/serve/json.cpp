#include "serve/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/numfmt.hpp"

namespace ownsim::serve {
namespace {

[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("Json: value is not ") + want);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument("JSON parse error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json(nullptr);
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case '"':
        return Json(parse_string());
      case '[':
        return parse_array();
      case '{':
        return parse_object();
      default:
        return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("bad escape character");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return value;
  }

  void append_codepoint(std::string& out, unsigned cp) {
    // Surrogate pair: a high surrogate must be followed by \uDC00..\uDFFF.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        fail("unpaired high surrogate");
      }
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("bad number");
    const bool integral = token.find_first_of(".eE") == std::string_view::npos;
    if (integral) {
      std::int64_t i = 0;
      const auto r =
          std::from_chars(token.data(), token.data() + token.size(), i);
      if (r.ec == std::errc{} && r.ptr == token.data() + token.size()) {
        return Json(i);
      }
      // Out of int64 range: fall through to double.
    }
    double d = 0.0;
    const auto r =
        std::from_chars(token.data(), token.data() + token.size(), d);
    if (r.ec != std::errc{} || r.ptr != token.data() + token.size()) {
      fail("bad number");
    }
    return Json(d);
  }

  Json parse_array() {
    expect('[');
    Json::Array array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Json(std::move(array));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json(std::move(object));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json::Json(std::uint64_t u) {
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  if (u <= static_cast<std::uint64_t>(kMax)) {
    value_ = static_cast<std::int64_t>(u);
  } else {
    // Beyond int64: keep the exact decimal digits by storing... there is no
    // exact slot; seeds are accepted up to 2^63-1 (validated at parse time).
    throw std::invalid_argument("Json: unsigned value exceeds int64 range");
  }
}

bool Json::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(value_);
}

std::int64_t Json::as_int() const {
  if (is_int()) return std::get<std::int64_t>(value_);
  if (is_double()) {
    const double d = std::get<double>(value_);
    const auto i = static_cast<std::int64_t>(d);
    if (static_cast<double>(i) == d) return i;
  }
  type_error("an integer");
}

double Json::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (is_double()) return std::get<double>(value_);
  type_error("a number");
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) type_error("an object");
  return std::get<Object>(value_);
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const Object& object = std::get<Object>(value_);
  const auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = Object{};
  return as_object()[key];
}

void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string json_string(std::string_view text) {
  std::string out;
  append_json_string(out, text);
  return out;
}

void Json::dump_to(std::string& out) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (is_int()) {
    out += format_int(std::get<std::int64_t>(value_));
  } else if (is_double()) {
    out += format_double(std::get<double>(value_));
  } else if (is_string()) {
    append_json_string(out, std::get<std::string>(value_));
  } else if (is_array()) {
    out.push_back('[');
    const Array& array = std::get<Array>(value_);
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i > 0) out.push_back(',');
      array[i].dump_to(out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    const Object& object = std::get<Object>(value_);
    bool first = true;
    for (const auto& [key, value] : object) {
      if (!first) out.push_back(',');
      first = false;
      append_json_string(out, key);
      out.push_back(':');
      value.dump_to(out);
    }
    out.push_back('}');
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace ownsim::serve
