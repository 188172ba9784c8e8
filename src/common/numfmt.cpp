#include "common/numfmt.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace ownsim {

std::string format_double(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument(
        "format_double: non-finite values have no JSON form");
  }
  // Shortest round-trip form; to_chars never writes a locale separator.
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  if (r.ec != std::errc{}) {
    throw std::runtime_error("format_double: to_chars failed");
  }
  return std::string(buf, r.ptr);
}

std::string format_int(std::int64_t value) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, r.ptr);
}

}  // namespace ownsim
