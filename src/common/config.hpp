// Key-value configuration store.
//
// Experiments are parameterized by flat `key = value` settings (BookSim
// style). `Config` holds string values with typed, defaulted getters and can
// be populated programmatically, from "k=v,k2=v2" strings, or from a simple
// config file (one `key = value` per line, `#` comments).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ownsim {

class Config {
 public:
  Config() = default;

  /// Parses "k=v k2=v2" / "k=v,k2=v2" (spaces, commas or semicolons separate).
  static Config from_string(const std::string& text);

  /// Parses a file of `key = value` lines; '#' starts a comment.
  /// Throws std::runtime_error if the file cannot be opened.
  static Config from_file(const std::string& path);

  void set(const std::string& key, const std::string& value);

  bool contains(const std::string& key) const;

  /// Typed getters; return `fallback` when the key is absent and throw
  /// std::runtime_error when present but malformed.
  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Required getters; throw std::runtime_error when the key is absent.
  std::string require_string(const std::string& key) const;
  std::int64_t require_int(const std::string& key) const;
  double require_double(const std::string& key) const;

  /// Merges `other` into this, overwriting duplicates.
  void merge(const Config& other);

  /// Keys in sorted order (deterministic dumps).
  std::vector<std::string> keys() const;

 private:
  std::optional<std::string> find(const std::string& key) const;

  std::map<std::string, std::string> values_;
};

}  // namespace ownsim
