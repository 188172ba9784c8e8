// Three-way differential + timing comparison of the simulation kernels
// (DESIGN.md §5e/§5i): the same operating point is run under the lockstep
// baseline, the activity-driven kernel, and the partitioned parallel kernel.
// All simulated results must be bit-identical (the bench aborts otherwise —
// this is the differential check CI leans on); the wall-clock ratios are the
// idle skip-ahead speedup (lockstep / activity) and the parallel speedup
// (activity / parallel), which perf_compare.py tracks against
// bench/baselines/ci.json. Two points:
//
//   * OWN-256, uniform, rate 0.001 — the mostly-idle bottom of the Fig 7
//     sweep, where skip-ahead dominates (the original A/B point).
//   * OWN-1024, uniform, overdrive rate — the saturated Fig 7a point, where
//     nearly every component is active every cycle: the parallel kernel's
//     target regime (threads spread the per-cycle eval sweep).
//
// The parallel worker count comes from OWNSIM_THREADS (default: hardware
// concurrency, capped at 8 — the partition counts here don't feed more) and
// is recorded in the schema-v2 JSONL rows, so perf_compare's speedup floor
// can be applied per thread count.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/thread_pool.hpp"
#include "metrics/table_io.hpp"

namespace {

struct KernelTiming {
  ownsim::RunResult run;
  double wall_seconds = 0.0;
  ownsim::Engine::Stats stats;
};

/// Builds a fresh network, pins the kernel, and runs the given point. Fresh
/// state per mode keeps the runs independent and seeds identical.
KernelTiming run_point(const ownsim::ExperimentConfig& experiment,
                       ownsim::KernelMode mode, unsigned threads) {
  using namespace ownsim;
  const WallTimer timer;
  Network network(build_topology(experiment.topology, experiment.options));
  network.engine().set_mode(mode);
  if (mode == KernelMode::kParallel) network.configure_parallel(threads);
  TrafficPattern pattern(experiment.pattern, experiment.options.num_cores);
  Injector::Params params = experiment.injector;
  params.rate = experiment.rate;
  Injector injector(&network, pattern, params);
  network.engine().add(&injector);

  KernelTiming timing;
  timing.run = run_load_point(network, injector, experiment.phases);
  timing.wall_seconds = timer.seconds();
  timing.stats = network.engine().stats();
  return timing;
}

/// Runs one point under all three kernels, checks three-way bit-identity,
/// prints the table and emits one schema-v2 record per kernel. Returns false
/// when any kernel diverged from the lockstep baseline.
bool three_way(const char* label, const ownsim::ExperimentConfig& experiment,
               unsigned threads) {
  using namespace ownsim;
  const KernelMode modes[] = {KernelMode::kLockstep, KernelMode::kActivity,
                              KernelMode::kParallel};
  KernelTiming timing[3];
  for (int i = 0; i < 3; ++i) {
    timing[i] = run_point(experiment, modes[i], threads);
  }
  const KernelTiming& lockstep = timing[0];
  const KernelTiming& activity = timing[1];
  const KernelTiming& parallel = timing[2];

  bool identical = true;
  for (int i = 1; i < 3; ++i) {
    if (!deterministic_eq(lockstep.run, timing[i].run)) {
      std::fprintf(stderr,
                   "bench_kernel[%s]: %s kernel diverged from the lockstep "
                   "baseline — results are not bit-identical\n",
                   label, ownsim::to_string(modes[i]));
      identical = false;
    }
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double skip_speedup =
      ratio(lockstep.wall_seconds, activity.wall_seconds);
  const double parallel_speedup =
      ratio(activity.wall_seconds, parallel.wall_seconds);

  Table table({"kernel", "wall s", "cycles", "evals", "skipped"});
  for (int i = 0; i < 3; ++i) {
    table.add_row({ownsim::to_string(modes[i]),
                   Table::num(timing[i].wall_seconds, 4),
                   std::to_string(timing[i].run.cycles_simulated),
                   std::to_string(timing[i].stats.evals),
                   std::to_string(timing[i].stats.cycles_skipped)});
  }
  table.print(std::cout);
  std::cout << "bit-identical: " << (identical ? "yes" : "NO")
            << "   skip-ahead: " << Table::num(skip_speedup, 2)
            << "x (lockstep/activity)   parallel: "
            << Table::num(parallel_speedup, 2) << "x (activity/parallel, "
            << threads << " threads)\n";

  for (int i = 0; i < 3; ++i) {
    const KernelMode mode = modes[i];
    BenchRecord record;
    record.bench = "bench_kernel";
    record.paper_ref = "DESIGN.md 5e/5i";
    record.config = std::string(bench::phase_preset_name()) + "." + label;
    record.kernel = ownsim::to_string(mode);
    record.threads =
        mode == KernelMode::kParallel ? static_cast<int>(threads) : 1;
    record.metrics.push_back({"throughput", timing[i].run.throughput,
                              "flits/node/cycle", /*deterministic=*/true,
                              "higher"});
    record.metrics.push_back({"avg_latency", timing[i].run.avg_latency,
                              "cycles", /*deterministic=*/true, "lower"});
    record.metrics.push_back(
        {"cycles_simulated",
         static_cast<double>(timing[i].run.cycles_simulated), "cycles",
         /*deterministic=*/true, "either"});
    record.metrics.push_back({"wall_seconds", timing[i].wall_seconds, "s",
                              /*deterministic=*/false, "lower"});
    if (mode == KernelMode::kActivity) {
      record.metrics.push_back(
          {"cycles_skipped",
           static_cast<double>(timing[i].stats.cycles_skipped), "cycles",
           /*deterministic=*/true, "higher"});
      record.metrics.push_back({"speedup_vs_lockstep", skip_speedup, "x",
                                /*deterministic=*/false, "higher"});
    }
    if (mode == KernelMode::kParallel) {
      record.metrics.push_back({"speedup_vs_activity", parallel_speedup, "x",
                                /*deterministic=*/false, "higher"});
    }
    emit_bench_json(record);
  }
  return identical;
}

}  // namespace

int main() {
  using namespace ownsim;
  const unsigned threads = std::min(8u, exec::default_threads());
  bench::print_header("simulation kernel A/B/C (lockstep/activity/parallel)",
                      "DESIGN.md 5e/5i");
  std::cout << "parallel worker threads: " << threads << "\n";

  // Point 1: mostly-idle OWN-256 (skip-ahead regime).
  ExperimentConfig idle = bench::base_experiment(TopologyKind::kOwn, 256);
  idle.rate = 0.001;
  std::cout << "\n-- own256-idle: OWN-256 uniform, rate 0.001 --\n";
  const bool ok_idle = three_way("own256-idle", idle, threads);

  // Point 2: saturated OWN-1024 (parallel-kernel regime).
  ExperimentConfig hot = bench::base_experiment(TopologyKind::kOwn, 1024);
  hot.rate = bench::overdrive_rate(1024);
  std::cout << "\n-- own1024-hot: OWN-1024 uniform, rate " << hot.rate
            << " --\n";
  const bool ok_hot = three_way("own1024-hot", hot, threads);

  return ok_idle && ok_hot ? 0 : 1;
}
