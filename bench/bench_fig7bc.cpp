// Regenerates paper Fig. 7(b,c): average packet latency vs offered load for
// uniform-random (b) and bit-reversal (c) traffic across the 256-core
// topologies. Paper shape: OWN saturates at the highest load; p-Clos ~10 %
// earlier; CMESH, wireless-CMESH and OptXB ~20 % earlier; OWN's zero-load
// latency is the lowest (3-hop worst case).
//
// Each topology's sweep runs its load points on `exec::parallel_for`
// (`OWNSIM_THREADS` overrides the thread count). A final section measures the
// parallel speedup of one OWN-256 sweep — 1 thread vs 4 — and checks the
// results stayed bit-identical.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/parallel_for.hpp"
#include "metrics/report.hpp"
#include "metrics/table_io.hpp"

namespace {

/// The two sweeps of the speedup section must agree exactly — same points,
/// same latencies bit for bit — or the parallel dispatch is broken.
bool identical_sweeps(const ownsim::SweepResult& a,
                      const ownsim::SweepResult& b) {
  if (a.zero_load_latency != b.zero_load_latency) return false;
  if (a.saturation_rate != b.saturation_rate) return false;
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const ownsim::RunResult& x = a.points[i].result;
    const ownsim::RunResult& y = b.points[i].result;
    if (a.points[i].rate != b.points[i].rate) return false;
    if (x.avg_latency != y.avg_latency || x.throughput != y.throughput ||
        x.p99_latency != y.p99_latency ||
        x.measured_packets != y.measured_packets || x.drained != y.drained) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace ownsim;
  const std::vector<double> rates = {0.001, 0.002, 0.003, 0.004,
                                     0.005, 0.006, 0.007, 0.008};
  const unsigned threads = exec::default_threads();

  for (PatternKind pattern :
       {PatternKind::kUniform, PatternKind::kBitReversal}) {
    bench::print_header(
        (std::string("256-core latency vs offered load, ") +
         to_string(pattern))
            .c_str(),
        pattern == PatternKind::kUniform ? "Fig 7b" : "Fig 7c");

    std::vector<std::string> header = {"network", "zero-load"};
    for (double r : rates) header.push_back(Table::num(r, 3));
    header.emplace_back("saturation");
    Table table(std::move(header));

    for (TopologyKind kind : paper_topologies()) {
      SweepOptions options;
      options.rates = rates;
      options.pattern = pattern;
      options.phases = bench::default_phases();
      options.stop_after_saturation = false;
      options.threads = threads;
      TopologyOptions topo;
      topo.num_cores = 256;
      const SweepResult sweep =
          latency_sweep(make_network_factory(kind, topo), options);

      std::vector<std::string> row = {to_string(kind),
                                      Table::num(sweep.zero_load_latency, 1)};
      for (const SweepPoint& point : sweep.points) {
        row.push_back(point.result.drained
                          ? Table::num(point.result.avg_latency, 1)
                          : "sat");
      }
      row.push_back(Table::num(sweep.saturation_rate, 3));
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }
  std::cout << "\n'sat' = the measured population no longer drains; the\n"
               "saturation column is the highest load whose latency stayed\n"
               "under 3x zero-load.\n";

  bench::print_header("parallel sweep speedup, OWN-256 uniform",
                      "exec subsystem");
  {
    SweepOptions options;
    options.rates = rates;
    options.pattern = PatternKind::kUniform;
    options.phases = bench::default_phases();
    options.stop_after_saturation = false;
    TopologyOptions topo;
    topo.num_cores = 256;
    const NetworkFactory factory =
        make_network_factory(TopologyKind::kOwn, topo);

    options.threads = 1;
    const SweepResult serial = latency_sweep(factory, options);
    options.threads = 4;
    const SweepResult parallel = latency_sweep(factory, options);

    const double speedup =
        serial.telemetry.wall_seconds / parallel.telemetry.wall_seconds;
    std::cout << "1 thread : " << sweep_telemetry_summary(serial.telemetry)
              << "\n4 threads: "
              << sweep_telemetry_summary(parallel.telemetry)
              << "\nspeedup at 4 threads: " << Table::num(speedup, 2)
              << "x (" << exec::hardware_threads()
              << " hardware threads available)\nbit-identical results: "
              << (identical_sweeps(serial, parallel) ? "yes" : "NO — BUG")
              << '\n';
  }
  return 0;
}
