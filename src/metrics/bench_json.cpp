#include "metrics/bench_json.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "serve/json.hpp"

namespace ownsim {
namespace {

/// Round-trippable double: enough digits that Python's json.loads sees the
/// exact value the bench computed (deterministic metrics diff at ~1e-9).
std::string json_number(double value) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
  return os.str();
}

}  // namespace

bool bench_quick_mode() {
  const char* quick = std::getenv("OWNSIM_BENCH_QUICK");
  return quick != nullptr && *quick != '\0' &&
         std::string_view(quick) != "0";
}

void write_bench_record_json(std::ostream& os, const BenchRecord& record) {
  using serve::json_string;
  os << "{\"schema_version\": " << kBenchSchemaVersion
     << ", \"bench\": " << json_string(record.bench)
     << ", \"paper_ref\": " << json_string(record.paper_ref)
     << ", \"config\": " << json_string(record.config)
     << ", \"threads\": " << record.threads
     << ", \"kernel\": " << json_string(record.kernel) << ", \"metrics\": [";
  for (std::size_t i = 0; i < record.metrics.size(); ++i) {
    const BenchMetric& m = record.metrics[i];
    os << (i == 0 ? "" : ", ") << "{\"name\": " << json_string(m.name)
       << ", \"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit)
       << ", \"deterministic\": " << (m.deterministic ? "true" : "false")
       << ", \"better\": " << json_string(m.better) << "}";
  }
  os << "]}";
}

bool emit_bench_json(const BenchRecord& record) {
  const char* path = std::getenv("OWNSIM_BENCH_JSON");
  if (path == nullptr || *path == '\0') return false;
  std::ofstream out(path, std::ios::app);
  if (!out) {
    throw std::runtime_error(std::string("emit_bench_json: cannot open ") +
                             path);
  }
  write_bench_record_json(out, record);
  out << '\n';
  return true;
}

WallTimer::WallTimer()
    : start_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) {}

double WallTimer::seconds() const {
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<double>(now_ns - start_ns_) * 1e-9;
}

}  // namespace ownsim
