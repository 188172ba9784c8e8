// Latency-vs-load study for any topology/pattern pair (the Fig 7b,c
// methodology as a reusable tool):
//
//   ./latency_sweep [topology=own] [pattern=UN] [cores=256] [threads=hw]
//
// Sweeps offered load until saturation and prints the latency curve, the
// zero-load latency and the saturation point. Load points are independent
// simulations and run on `threads` threads; results are
// bit-identical for any thread count (per-point RNG streams derive from the
// sweep master seed).
#include <cstdlib>
#include <iostream>
#include <string>

#include "driver/simulate.hpp"
#include "exec/parallel_for.hpp"
#include "metrics/report.hpp"
#include "metrics/table_io.hpp"

int main(int argc, char** argv) {
  using namespace ownsim;

  const TopologyKind topology = parse_topology(argc > 1 ? argv[1] : "own");
  const PatternKind pattern = parse_pattern(argc > 2 ? argv[2] : "UN");
  TopologyOptions options;
  options.num_cores = argc > 3 ? std::atoi(argv[3]) : 256;
  const unsigned threads = argc > 4
                               ? static_cast<unsigned>(std::atoi(argv[4]))
                               : exec::default_threads();

  SweepOptions sweep_options;
  const double step = options.num_cores <= 256 ? 0.001 : 0.00033;
  for (int i = 1; i <= 12; ++i) sweep_options.rates.push_back(step * i);
  sweep_options.pattern = pattern;
  sweep_options.phases.warmup = 1500;
  sweep_options.phases.measure = 4000;
  sweep_options.stop_after_saturation = true;
  sweep_options.threads = threads;
  sweep_options.progress = [](const SweepProgress& progress) {
    std::cerr << sweep_progress_line(progress) << '\n';
  };

  std::cout << "Sweeping " << to_string(topology) << "-" << options.num_cores
            << " under " << to_string(pattern) << " traffic ("
            << threads << " threads)...\n\n";
  const SweepResult sweep =
      latency_sweep(make_network_factory(topology, options), sweep_options);

  Table table({"offered", "avg_latency", "p99", "throughput", "drained"});
  for (const SweepPoint& point : sweep.points) {
    table.add_row({Table::num(point.rate, 4),
                   Table::num(point.result.avg_latency, 1),
                   Table::num(point.result.p99_latency, 1),
                   Table::num(point.result.throughput, 4),
                   point.result.drained ? "yes" : "no"});
  }
  table.print(std::cout);
  std::cout << "\nzero-load latency : " << sweep.zero_load_latency
            << " cycles\nsaturation load   : " << sweep.saturation_rate
            << " flits/node/cycle (latency knee at 3x zero-load)\n"
            << "execution         : "
            << sweep_telemetry_summary(sweep.telemetry) << '\n';
  return 0;
}
