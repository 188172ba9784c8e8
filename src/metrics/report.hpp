// Post-run reporting: per-link/medium utilization, per-router activity and
// machine-readable exports (CSV / JSON) for downstream analysis or plotting.
//
// Utilization of a channel = flit-slots used / flit-slots available
// (elapsed / cycles_per_flit), i.e. 1.0 means the serialization budget was
// fully consumed — the quantity the bisection normalization reasons about.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "metrics/sweep.hpp"
#include "network/network.hpp"
#include "serve/json.hpp"

namespace ownsim {

struct ChannelUtilization {
  std::string name;
  MediumType medium = MediumType::kElectrical;
  bool shared = false;        ///< SharedMedium vs point-to-point link
  std::int64_t flits = 0;
  double utilization = 0.0;   ///< [0, 1]
  double token_wait_share = 0.0;  ///< shared media: waiting cycles / elapsed
};

struct RouterActivity {
  RouterId id = 0;
  std::int64_t crossbar_flits = 0;
  double crossbar_load = 0.0;  ///< flits per cycle through the crossbar
};

class NetworkReport {
 public:
  /// Snapshots utilization/activity after (part of) a simulation.
  explicit NetworkReport(const Network& network);

  const std::vector<ChannelUtilization>& channels() const { return channels_; }
  const std::vector<RouterActivity>& routers() const { return routers_; }
  /// Snapshot of the network's obs counter registry (name-sorted; empty when
  /// the registry is compiled out with OWNSIM_OBS=OFF).
  const std::vector<std::pair<std::string, std::int64_t>>& counters() const {
    return counters_;
  }

  /// Most-utilized channel (the bottleneck candidate).
  const ChannelUtilization& hottest_channel() const;
  /// Busiest router by crossbar load.
  const RouterActivity& hottest_router() const;

  /// Mean/max utilization over channels of one medium type.
  double mean_utilization(MediumType medium) const;
  double max_utilization(MediumType medium) const;

  /// Exports (one row per channel / router).
  void write_channels_csv(std::ostream& os) const;
  void write_routers_csv(std::ostream& os) const;
  /// Whole report as a JSON object.
  void write_json(std::ostream& os) const;

 private:
  Cycle elapsed_ = 0;
  std::vector<ChannelUtilization> channels_;
  std::vector<RouterActivity> routers_;
  std::vector<std::pair<std::string, std::int64_t>> counters_;
};

/// One-line human summary of a sweep's execution telemetry, e.g.
/// "9 points (1 cancelled) on 4 threads: 1.2M cycles in 0.84 s".
std::string sweep_telemetry_summary(const SweepTelemetry& telemetry);

/// One-line progress report for `SweepOptions::progress` callbacks, e.g.
/// "[ 3/9] rate 0.0030  1.2M cycles  0.84 s".
std::string sweep_progress_line(const SweepProgress& progress);

/// One-line human summary of a run's self-profile, e.g.
/// "11.5k cycles in 0.21 s (54.8k cycles/s), peak RSS 38.1 MB
///  [warmup 0.04 / measure 0.11 / drain 0.06 s]".
std::string run_profile_summary(const RunResult& result);

/// Profile as a flat JSON object (per-phase wall seconds, cycles/sec, RSS).
void write_run_profile_json(std::ostream& os, const RunResult& result);

/// The deterministic fields of `result` as a canonical JSON object (sorted
/// keys, shortest-round-trip number forms via serve::Json), the latency
/// histogram as sparse nonzero bins — and NOT the wall-clock `profile`.
/// Exactly the fields `deterministic_eq` compares, so the bytes are stable
/// across reruns, thread counts, kernels, and tracing. Feeds the hashed
/// result payload (driver/simulate: experiment_result_json).
serve::Json run_result_canonical_json(const RunResult& result);

/// Appends `run_result_canonical_json(result)`, dumped, to `out`.
void append_run_result_canonical_json(std::string& out,
                                      const RunResult& result);

}  // namespace ownsim
