// High-level experiment driver: one call builds a topology, drives synthetic
// traffic through the warmup/measure/drain protocol, and reports latency,
// throughput and the power breakdown. This is the API the examples and the
// bench harness are written against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adapt/config.hpp"
#include "fault/campaign.hpp"
#include "metrics/runner.hpp"
#include "metrics/sweep.hpp"
#include "sim/engine.hpp"
#include "power/energy_model.hpp"
#include "topology/registry.hpp"
#include "traffic/patterns.hpp"
#include "wireless/configurations.hpp"

namespace ownsim {

struct ExperimentConfig {
  TopologyKind topology = TopologyKind::kOwn;
  PatternKind pattern = PatternKind::kUniform;
  double rate = 0.004;  ///< offered load, flits/node/cycle

  TopologyOptions options;           ///< num_cores etc.
  OwnConfig own_config = OwnConfig::kConfig4;  ///< Table IV row (OWN only)
  Scenario scenario = Scenario::kIdeal;        ///< Table III outlook

  RunPhases phases;
  Injector::Params injector;  ///< .rate overridden by `rate`
  PowerParams power;

  /// Simulation kernel. All three kernels are bit-identical (DESIGN.md
  /// §5e/§5i); lockstep is the slow baseline kept for differential testing
  /// and A/B timing, parallel the partitioned multi-threaded kernel.
  KernelMode kernel = KernelMode::kActivity;

  /// Parallel-kernel worker threads; 0 = exec::default_threads() (which
  /// honors OWNSIM_THREADS). Ignored by the other kernels. Excluded from
  /// the canonical config JSON: thread count never changes a result.
  int threads = 0;
  /// Parallel-kernel partition-count override; 0 = the topology's hint (or
  /// the contiguous fallback). Also result-neutral, also excluded.
  int partitions = 0;

  /// Runtime fault campaign (fault/campaign.hpp). When enabled on OWN-256
  /// the topology is built campaign-capable: the healthy floorplan with the
  /// 5-class degraded route scheme, so mid-run deaths can reroute online.
  fault::CampaignConfig fault;

  /// Thermal/variation-driven adaptive link layer (adapt/, DESIGN.md §5k).
  /// Enabling it on OWN-256 also builds the campaign-capable topology so the
  /// controller's wireless re-allocation can patch routes online.
  adapt::AdaptConfig adapt;
};

struct ExperimentResult {
  std::string name;
  RunResult run;
  PowerBreakdown power;
  double energy_per_packet_pj = 0.0;
  fault::Totals fault{};           ///< zero when no campaign ran
  adapt::Totals adapt{};           ///< zero/disabled when the loop was off
  bool watchdog_tripped = false;   ///< run was aborted by the watchdog

  /// Snapshot of the network's obs counter registry after the run
  /// (name-sorted; empty when OWNSIM_OBS=OFF). Counters are simulated
  /// quantities — part of the deterministic result.
  std::vector<std::pair<std::string, std::int64_t>> counters;
};

/// Optional instrumentation around `run_experiment` — everything the CLI's
/// reporting modes and the benchmark harness need from the run without
/// owning the Network themselves. All members may be empty; none of them
/// may change the simulated result (the hooks are read-only by contract).
struct RunHooks {
  /// Streamed between simulation slices (see metrics/runner.hpp).
  RunProgressFn progress;

  /// Called after the network is built and all components are registered,
  /// before the first cycle — attach tracing, inspect the spec, etc.
  std::function<void(Network&)> before_run;

  /// Called after the run with the network still alive — utilization
  /// reports, trace flushing, counter dumps.
  std::function<void(Network&, const ExperimentResult&)> after_run;
};

/// The OWN per-channel energy model for a given size/config/scenario;
/// nullopt for non-OWN topologies.
std::optional<ChannelEnergyModel> own_channel_energy(
    TopologyKind topology, int num_cores, OwnConfig config, Scenario scenario);

/// Factory building fresh networks of this experiment's topology (used by
/// the sweep machinery; each load point gets clean counters).
NetworkFactory make_network_factory(TopologyKind topology,
                                    TopologyOptions options);

/// Spec for `config`, honoring the fault campaign and the adaptation loop
/// (campaign-capable OWN-256 build when `config.fault.enabled` or
/// `config.adapt.enabled`; the plain topology otherwise).
NetworkSpec build_experiment_spec(const ExperimentConfig& config);

/// Campaign for `config`, validated against `network`; null when disabled.
/// The caller attaches it after registering all other components.
std::unique_ptr<fault::FaultCampaign> make_campaign(
    Network& network, const ExperimentConfig& config);

/// Runs one load point end to end (build, warm, measure, drain, aggregate).
ExperimentResult run_experiment(const ExperimentConfig& config);

/// As above, with instrumentation hooks (progress, pre/post network
/// access). `run_experiment(config)` is `run_experiment(config, {})`.
ExperimentResult run_experiment(const ExperimentConfig& config,
                                const RunHooks& hooks);

/// Canonical, byte-stable JSON of the deterministic experiment result:
/// sorted keys, shortest-round-trip number forms (common/numfmt), wall-clock
/// profile EXCLUDED. Every field serialized here is covered by the
/// determinism contract, so its SHA-256 pins a result: the benchmark's
/// golden digests and the byte pins in the tests hash it.
std::string experiment_result_json(const ExperimentResult& result);

}  // namespace ownsim
