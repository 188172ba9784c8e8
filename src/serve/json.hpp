// Minimal JSON value, parser, and canonical writer — used by the topology
// file loader, the canonical config and result JSON, the reports, obs and
// the benchmark harness. No external dependency, just the subset of JSON
// those need: null, bool, 64-bit integers, doubles, strings, arrays,
// objects. Two properties matter beyond "parses JSON":
//
//   * Objects keep their keys in a std::map, so `dump()` is canonical —
//     sorted keys, shortest round-trip number forms (common/numfmt) — and
//     serializing the same value always yields the same bytes.
//   * Numbers distinguish integers from doubles: a seed like 2^63-1 must
//     survive a round trip bit-exactly, which a double-only model cannot do.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ownsim::serve {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::int64_t i) : value_(i) {}
  Json(std::uint64_t u);
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;       ///< also accepts an integral double
  double as_double() const;          ///< any number
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Object& as_object();

  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const;

  /// Member access on an object (creates the key, like std::map).
  Json& operator[](const std::string& key);

  /// Compact canonical text: sorted object keys, numfmt number forms,
  /// minimal escaping. Same value -> same bytes, always.
  std::string dump() const;
  void dump_to(std::string& out) const;

  /// Parses one JSON value; the whole input must be consumed (trailing
  /// whitespace allowed). Throws std::invalid_argument with position info.
  static Json parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

/// Appends `text` JSON-escaped (quotes included) to `out`.
void append_json_string(std::string& out, std::string_view text);

/// `text` as a JSON string literal, escaped as by `append_json_string`.
std::string json_string(std::string_view text);

}  // namespace ownsim::serve
