#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <stdexcept>

namespace ownsim {
namespace {

std::string trim(const std::string& s) {
  auto begin = s.begin();
  auto end = s.end();
  while (begin != end && std::isspace(static_cast<unsigned char>(*begin))) ++begin;
  while (end != begin && std::isspace(static_cast<unsigned char>(*(end - 1)))) --end;
  return {begin, end};
}

void parse_assignment(Config& config, const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) {
    throw std::runtime_error("Config: token missing '=': " + token);
  }
  const std::string key = trim(token.substr(0, eq));
  const std::string value = trim(token.substr(eq + 1));
  if (key.empty()) throw std::runtime_error("Config: empty key in: " + token);
  config.set(key, value);
}

}  // namespace

Config Config::from_string(const std::string& text) {
  // Normalize "key = value" to "key=value" so whitespace can act as a
  // separator between assignments.
  std::string normalized;
  normalized.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      std::size_t j = i;
      while (j < text.size() &&
             std::isspace(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      const bool eq_after = j < text.size() && text[j] == '=';
      const bool eq_before = !normalized.empty() && normalized.back() == '=';
      if (!eq_after && !eq_before) normalized.push_back(' ');
      i = j - 1;
    } else {
      normalized.push_back(text[i]);
    }
  }

  Config config;
  std::string token;
  for (char c : normalized + " ") {
    if (c == ',' || c == ';' || std::isspace(static_cast<unsigned char>(c))) {
      if (!trim(token).empty()) parse_assignment(config, token);
      token.clear();
    } else {
      token.push_back(c);
    }
  }
  return config;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Config: cannot open " + path);
  Config config;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    parse_assignment(config, line);
  }
  return config;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) > 0;
}

std::optional<std::string> Config::find(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return find(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  auto v = find(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t out = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return out;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: key '" + key + "' is not an int: " + *v);
  }
}

double Config::get_double(const std::string& key, double fallback) const {
  auto v = find(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return out;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: key '" + key + "' is not a double: " + *v);
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  auto v = find(key);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  throw std::runtime_error("Config: key '" + key + "' is not a bool: " + *v);
}

std::string Config::require_string(const std::string& key) const {
  auto v = find(key);
  if (!v) throw std::runtime_error("Config: missing required key '" + key + "'");
  return *v;
}

std::int64_t Config::require_int(const std::string& key) const {
  if (!contains(key)) {
    throw std::runtime_error("Config: missing required key '" + key + "'");
  }
  return get_int(key, 0);
}

double Config::require_double(const std::string& key) const {
  if (!contains(key)) {
    throw std::runtime_error("Config: missing required key '" + key + "'");
  }
  return get_double(key, 0.0);
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

}  // namespace ownsim
