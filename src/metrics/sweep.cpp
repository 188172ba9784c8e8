#include "metrics/sweep.hpp"

#include <chrono>
#include <cstddef>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "exec/cancellation.hpp"
#include "exec/parallel_for.hpp"

namespace ownsim {
namespace {

RunResult run_fresh(const NetworkFactory& factory, PatternKind pattern,
                    double rate, const RunPhases& phases,
                    Injector::Params params,
                    exec::CancellationToken token = {}) {
  std::unique_ptr<Network> network = factory();
  params.rate = rate;
  TrafficPattern traffic(pattern, network->spec().num_nodes);
  Injector injector(network.get(), traffic, params);
  network->engine().add(&injector);
  return run_load_point(*network, injector, phases, token);
}

/// Controller state shared by the threads that run the sweep's points.
/// Index 0 is the zero-load probe; index i >= 1 is rates[i-1]. `tail` is
/// not guarded: CancellationSource is internally atomic, so
/// request_cancel/token race benignly by design.
struct SweepState {
  Mutex mu;
  std::vector<std::optional<RunResult>> results OWNSIM_GUARDED_BY(mu);
  std::vector<char> settled OWNSIM_GUARDED_BY(mu);
  exec::CancellationSource tail;  ///< cancels every point past the knee
  bool cancel_issued OWNSIM_GUARDED_BY(mu) = false;
  int completed OWNSIM_GUARDED_BY(mu) = 0;
  int cancelled OWNSIM_GUARDED_BY(mu) = 0;
  std::int64_t cycles OWNSIM_GUARDED_BY(mu) = 0;
};

bool is_saturated(const RunResult& r, double zero_load_latency,
                  double saturation_factor) {
  return !r.drained ||
         r.avg_latency > saturation_factor * zero_load_latency;
}

/// With `stop_after_saturation`, once the settled results form a contiguous
/// prefix whose first saturated point is known, every later point is
/// speculative and gets cancelled. The knee is named only after every point
/// up to it has settled, so one source covers exactly the points still
/// running or not yet started, all past the knee, and the assembled result
/// matches the serial stop-at-saturation sweep exactly.
void maybe_cancel_tail(SweepState& state, const SweepOptions& options)
    OWNSIM_REQUIRES(state.mu) {
  if (!options.stop_after_saturation || state.cancel_issued) return;
  if (!state.settled[0]) return;  // zero-load latency not known yet
  const double zero = state.results[0]->avg_latency;
  for (std::size_t i = 1; i < state.results.size(); ++i) {
    if (!state.settled[i] || !state.results[i]) return;
    if (is_saturated(*state.results[i], zero, options.saturation_factor)) {
      state.tail.request_cancel();
      state.cancel_issued = true;
      return;
    }
  }
}

}  // namespace

SweepResult latency_sweep(const NetworkFactory& factory,
                          const SweepOptions& options) {
  if (options.rates.empty()) {
    throw std::invalid_argument("latency_sweep: no rates given");
  }
  const auto start = std::chrono::steady_clock::now();
  const std::size_t num_tasks = options.rates.size() + 1;  // + probe

  SweepState state;
  state.results.resize(num_tasks);
  state.settled.assign(num_tasks, 0);
  std::vector<std::exception_ptr> errors(num_tasks);

  const unsigned threads =
      std::min<unsigned>(std::max(1u, options.threads),
                         static_cast<unsigned>(num_tasks));

  // Every load point runs on its own fresh network; point i derives injector
  // stream i from the sweep's master seed, so the per-point simulation is a
  // pure function of (factory, options, i) — identical for any thread
  // count, any start order and any completion order.
  // A sweep that runs every point starts the highest rate first and the
  // probe last: a point costs more the higher its load, and starting the
  // longest first keeps one late saturated point from ending the sweep
  // alone. One that may cancel its tail keeps rates ascending, so the knee
  // settles before the speculative points past it start.
  exec::parallel_for(threads, num_tasks, [&](std::size_t k) {
    const std::size_t i = options.stop_after_saturation ? k : num_tasks - 1 - k;
    try {
      const exec::CancellationToken token = state.tail.token();
      std::optional<RunResult> result;
      if (!token.cancelled()) {
        Injector::Params params = options.injector;
        params.master_seed = derive_seed(options.master_seed, i);
        const double rate =
            i == 0 ? options.zero_load_rate : options.rates[i - 1];
        RunResult r = run_fresh(factory, options.pattern, rate,
                                options.phases, params, token);
        if (!r.cancelled) result = std::move(r);
      }
      MutexLock lock(state.mu);
      state.settled[i] = 1;
      if (result) {
        ++state.completed;
        state.cycles += result->cycles_simulated;
        state.results[i] = std::move(result);
        if (options.progress) {
          SweepProgress progress;
          progress.completed = state.completed;
          progress.total = static_cast<int>(num_tasks);
          progress.rate =
              i == 0 ? -1.0 : options.rates[i - 1];
          progress.cycles_simulated = state.cycles;
          progress.wall_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
          options.progress(progress);
        }
      } else {
        ++state.cancelled;
      }
      maybe_cancel_tail(state, options);
    } catch (...) {
      errors[i] = std::current_exception();  // the other points run on
    }
  });
  // Rethrows the lowest-indexed point's exception (factory failures etc.),
  // after every point settled.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Serial assembly, identical to the historical one-point-at-a-time loop:
  // visit rates ascending, stop at the first saturated point when asked.
  // Speculative results past the knee are discarded here. Every point has
  // settled, so the lock is uncontended — it is taken so the guarded reads
  // below stay inside a scope the thread-safety analysis can verify.
  MutexLock lock(state.mu);
  SweepResult sweep;
  sweep.zero_load_latency = state.results[0]->avg_latency;
  bool saturated = false;
  for (std::size_t i = 0; i < options.rates.size(); ++i) {
    if (saturated && options.stop_after_saturation) break;
    const std::optional<RunResult>& r = state.results[i + 1];
    if (!r) break;  // cancelled speculative tail
    sweep.points.push_back({options.rates[i], *r});
    if (!is_saturated(*r, sweep.zero_load_latency,
                      options.saturation_factor)) {
      sweep.saturation_rate = options.rates[i];
    } else {
      saturated = true;
    }
  }

  sweep.telemetry.threads = threads;
  sweep.telemetry.points_run = state.completed;
  sweep.telemetry.points_cancelled = state.cancelled;
  sweep.telemetry.cycles_simulated = state.cycles;
  sweep.telemetry.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return sweep;
}

RunResult saturation_throughput(const NetworkFactory& factory,
                                PatternKind pattern, double offered,
                                const RunPhases& phases,
                                Injector::Params injector) {
  return run_fresh(factory, pattern, offered, phases, injector);
}

}  // namespace ownsim
