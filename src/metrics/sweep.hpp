// Load sweeps and saturation-point detection (Fig 7b,c methodology).
//
// A sweep builds a *fresh* network per load point (clean counters, clean
// queues), measures each point with `run_load_point`, and locates the
// saturation load: the first offered rate whose average latency exceeds
// `saturation_factor` x zero-load latency (or that fails to drain).
//
// Load points are independent simulations, so the sweep runs them on
// `exec::parallel_for` (`SweepOptions::threads`). Determinism contract:
// every point derives its injector seed from `master_seed` + its point
// index (SplitMix64 stream scheme), so the `SweepResult` is bit-identical
// for any thread count, including 1, and any order the points run in.
// Order rule: with `stop_after_saturation` the points start in ascending
// rate order after the zero-load probe; the parallel sweep runs points past
// the knee speculatively and cancels them cooperatively once the first
// saturated point is confirmed; speculative results are discarded,
// preserving the serial stop-at-saturation result. Without it every point
// runs, so they start costliest first: the highest rate first, descending,
// and the probe last.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "metrics/runner.hpp"
#include "network/network.hpp"
#include "traffic/injector.hpp"

namespace ownsim {

/// Builds a fresh network instance for one load point. Must be callable
/// concurrently from several threads (factories built from
/// `build_topology` are: they share nothing mutable).
using NetworkFactory = std::function<std::unique_ptr<Network>()>;

struct SweepPoint {
  double rate = 0.0;
  RunResult result;
};

/// Execution telemetry of one sweep (not part of the deterministic result:
/// wall time varies run to run, the rest does not).
struct SweepTelemetry {
  unsigned threads = 1;
  int points_run = 0;        ///< simulated points incl. the zero-load probe
  int points_cancelled = 0;  ///< speculative points cancelled past the knee
  std::int64_t cycles_simulated = 0;  ///< engine cycles across all points
  double wall_seconds = 0.0;
};

/// Progress snapshot passed to `SweepOptions::progress` after each point.
struct SweepProgress {
  int completed = 0;   ///< points finished so far (incl. zero-load probe)
  int total = 0;       ///< points scheduled (rates + probe)
  double rate = 0.0;   ///< offered rate of the point that just finished;
                       ///< negative for the zero-load probe
  std::int64_t cycles_simulated = 0;  ///< cumulative engine cycles
  double wall_seconds = 0.0;          ///< wall time since the sweep started
};

struct SweepResult {
  std::vector<SweepPoint> points;
  double zero_load_latency = 0.0;
  /// Highest swept rate still under the saturation criterion; 0 when even
  /// the lowest rate saturates.
  double saturation_rate = 0.0;
  SweepTelemetry telemetry;
};

struct SweepOptions {
  std::vector<double> rates;          ///< offered loads to visit, ascending
  double zero_load_rate = 0.0005;     ///< probe load for zero-load latency
  double saturation_factor = 3.0;
  RunPhases phases;
  Injector::Params injector;          ///< .rate/.master_seed set per point
  PatternKind pattern = PatternKind::kUniform;
  bool stop_after_saturation = true;  ///< skip points beyond the first saturated one

  /// Master seed of the sweep. Point i derives its injector master seed as
  /// `derive_seed(master_seed, i + 1)` (the probe uses stream 0), so no two
  /// points correlate and the result is independent of `threads`.
  std::uint64_t master_seed = 1;
  /// Threads that run load points, the caller included (clamped to >= 1).
  unsigned threads = 1;
  /// Optional per-point progress callback. Invoked serialized, but possibly
  /// from helper threads; must not touch the sweep's inputs.
  std::function<void(const SweepProgress&)> progress;
};

/// Runs the sweep. The factory is invoked once per load point plus once for
/// the zero-load probe, possibly concurrently.
SweepResult latency_sweep(const NetworkFactory& factory,
                          const SweepOptions& options);

/// Accepted throughput at a saturating offered load (Fig 7a / Fig 8a
/// methodology): drive the network at `offered` and report what it accepts.
RunResult saturation_throughput(const NetworkFactory& factory,
                                PatternKind pattern, double offered,
                                const RunPhases& phases,
                                Injector::Params injector);

}  // namespace ownsim
