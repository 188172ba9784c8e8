// Machine-readable bench output: schema-versioned JSONL records that
// tools/perf_compare.py diffs against bench/baselines/*.json.
//
// Each bench binary builds one (or a few) BenchRecord values and calls
// emit_bench_json(). Emission is opt-in via the environment:
//
//   OWNSIM_BENCH_JSON=<path>   append one JSON object per record (JSONL)
//   OWNSIM_BENCH_QUICK=1      run the reduced "quick" phase preset (CI)
//
// Metrics carry a `deterministic` flag: simulated quantities (throughput,
// latency, counters) must be bit-stable across runs and are compared with a
// tight tolerance, while wall-clock metrics (seconds) get a loose one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ownsim {

/// Bump when the record layout changes; perf_compare.py accepts v1 and v2
/// (v2 added `threads` + `kernel` so one bench can record per-kernel rows).
inline constexpr int kBenchSchemaVersion = 2;

struct BenchMetric {
  std::string name;               ///< unique within the record
  double value = 0.0;
  std::string unit;               ///< "flits/node/cycle", "s", "cycles", ...
  bool deterministic = true;      ///< simulated quantity vs wall-clock
  std::string better = "higher";  ///< "higher" | "lower" | "either"
};

struct BenchRecord {
  std::string bench;      ///< binary name, e.g. "bench_fig7a"
  std::string paper_ref;  ///< figure/table the bench reproduces
  std::string config;     ///< phase preset: "quick" or "full"
  /// Schema v2: execution context of the record. Part of the baseline key
  /// (bench, config, kernel, threads), so the same bench can record one row
  /// per kernel/thread-count without the rows clobbering each other.
  int threads = 1;               ///< simulation worker threads
  std::string kernel = "activity";  ///< "activity" | "lockstep"
  std::vector<BenchMetric> metrics;
};

/// True when OWNSIM_BENCH_QUICK is set (and not "0"): benches should use the
/// reduced phase preset so CI smoke runs finish in seconds.
bool bench_quick_mode();

/// Writes `record` as a single-line JSON object (no trailing newline).
void write_bench_record_json(std::ostream& os, const BenchRecord& record);

/// Appends `record` as one JSONL line to the file named by OWNSIM_BENCH_JSON.
/// Returns false (and stays silent) when the variable is unset; throws
/// std::runtime_error when the file cannot be opened.
bool emit_bench_json(const BenchRecord& record);

/// Wall-clock stopwatch for bench telemetry. Lives here (src/metrics) so
/// bench binaries get elapsed seconds without touching std::chrono clocks
/// directly, which the determinism lint forbids outside telemetry paths.
class WallTimer {
 public:
  WallTimer();
  /// Seconds since construction (monotonic).
  double seconds() const;

 private:
  std::int64_t start_ns_ = 0;
};

}  // namespace ownsim
