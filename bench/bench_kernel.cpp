// Differential + timing comparison of the two simulation kernels (DESIGN.md
// §5e): the same operating point is run under the lockstep baseline and the
// activity-driven kernel. All simulated results must be bit-identical (the
// bench aborts otherwise — this is the differential check CI leans on); the
// wall-clock ratio is the idle skip-ahead speedup (lockstep / activity),
// which perf_compare.py tracks against bench/baselines/ci.json. Two points:
//
//   * OWN-256, uniform, rate 0.001 — the mostly-idle bottom of the Fig 7
//     sweep, where skip-ahead dominates (the original A/B point).
//   * OWN-1024, uniform, overdrive rate — the saturated Fig 7a point, where
//     nearly every component is active every cycle.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
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
                       ownsim::KernelMode mode) {
  using namespace ownsim;
  const WallTimer timer;
  Network network(build_topology(experiment.topology, experiment.options));
  network.engine().set_mode(mode);
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

/// Runs one point under both kernels, checks bit-identity, prints the table
/// and emits one schema-v2 record per kernel. Returns false when the
/// activity kernel diverged from the lockstep baseline.
bool two_way(const char* label, const ownsim::ExperimentConfig& experiment) {
  using namespace ownsim;
  const KernelMode modes[] = {KernelMode::kLockstep, KernelMode::kActivity};
  KernelTiming timing[2];
  for (int i = 0; i < 2; ++i) timing[i] = run_point(experiment, modes[i]);
  const KernelTiming& lockstep = timing[0];
  const KernelTiming& activity = timing[1];

  const bool identical = deterministic_eq(lockstep.run, activity.run);
  if (!identical) {
    std::fprintf(stderr,
                 "bench_kernel[%s]: activity kernel diverged from the "
                 "lockstep baseline — results are not bit-identical\n",
                 label);
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double skip_speedup =
      ratio(lockstep.wall_seconds, activity.wall_seconds);

  Table table({"kernel", "wall s", "cycles", "evals", "skipped"});
  for (int i = 0; i < 2; ++i) {
    table.add_row({ownsim::to_string(modes[i]),
                   Table::num(timing[i].wall_seconds, 4),
                   std::to_string(timing[i].run.cycles_simulated),
                   std::to_string(timing[i].stats.evals),
                   std::to_string(timing[i].stats.cycles_skipped)});
  }
  table.print(std::cout);
  std::cout << "bit-identical: " << (identical ? "yes" : "NO")
            << "   skip-ahead: " << Table::num(skip_speedup, 2)
            << "x (lockstep/activity)\n";

  for (int i = 0; i < 2; ++i) {
    const KernelMode mode = modes[i];
    BenchRecord record;
    record.bench = "bench_kernel";
    record.paper_ref = "DESIGN.md 5e";
    record.config = std::string(bench::phase_preset_name()) + "." + label;
    record.kernel = ownsim::to_string(mode);
    record.threads = 1;
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
    emit_bench_json(record);
  }
  return identical;
}

}  // namespace

int main() {
  using namespace ownsim;
  bench::print_header("simulation kernel A/B (lockstep/activity)",
                      "DESIGN.md 5e");

  // Point 1: mostly-idle OWN-256 (skip-ahead regime).
  ExperimentConfig idle = bench::base_experiment(TopologyKind::kOwn, 256);
  idle.rate = 0.001;
  std::cout << "\n-- own256-idle: OWN-256 uniform, rate 0.001 --\n";
  const bool ok_idle = two_way("own256-idle", idle);

  // Point 2: saturated OWN-1024 (every component busy every cycle).
  ExperimentConfig hot = bench::base_experiment(TopologyKind::kOwn, 1024);
  hot.rate = bench::overdrive_rate(1024);
  std::cout << "\n-- own1024-hot: OWN-1024 uniform, rate " << hot.rate
            << " --\n";
  const bool ok_hot = two_way("own1024-hot", hot);

  return ok_idle && ok_hot ? 0 : 1;
}
