// Canonical number formatting for byte-stable serialization.
//
// Everything that feeds a hash or a byte-compared artifact (canonical
// config JSON, the result JSON) formats floating-point values through
// here: std::to_chars shortest round-trip form, which is fully
// specified by the standard — the same double produces the same bytes on
// every conforming platform, and parsing the bytes back recovers the exact
// double. iostream formatting (locale- and precision-dependent) must not be
// used on those paths.
#pragma once

#include <cstdint>
#include <string>

namespace ownsim {

/// Shortest round-trip decimal form, e.g. 2.0 -> "2", 0.004 -> "0.004",
/// 1e30 -> "1e+30". NaN/inf are not representable in JSON and throw
/// std::invalid_argument.
std::string format_double(double value);

/// Exact decimal forms (no locale, no sign surprises).
std::string format_int(std::int64_t value);

}  // namespace ownsim
