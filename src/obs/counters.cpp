#include "obs/counters.hpp"

#include <ostream>

#include "serve/json.hpp"

namespace ownsim::obs {

#if OWNSIM_OBS_ENABLED

std::int64_t* Registry::slot(const std::string& name) {
  return &slots_.try_emplace(name, 0).first->second;
}

std::int64_t Registry::value(std::string_view name) const {
  const auto it = slots_.find(name);
  return it != slots_.end() ? it->second : 0;
}

bool Registry::contains(std::string_view name) const {
  return slots_.find(name) != slots_.end();
}

void Registry::for_each(
    const std::function<void(const std::string&, std::int64_t)>& fn) const {
  for (const auto& [name, value] : slots_) fn(name, value);
}

void Registry::write_json(std::ostream& os) const {
  os << '{';
  bool first = true;
  for (const auto& [name, value] : slots_) {
    os << (first ? "" : ", ") << serve::json_string(name) << ": " << value;
    first = false;
  }
  os << '}';
}

#else

void Registry::write_json(std::ostream& os) const { os << "{}"; }

#endif  // OWNSIM_OBS_ENABLED

}  // namespace ownsim::obs
