// Regenerates paper Fig. 7(a): accepted throughput (flits/node/cycle) at a
// saturating offered load for the five synthetic patterns across all
// 256-core topologies. Paper shape: all topologies land close together
// (equalized bisection), with OWN 1-2 % above CMESH / wireless-CMESH and the
// photonic networks marginally better than OWN on some patterns.
//
// The (topology x pattern) grid is embarrassingly parallel: each cell is an
// independent experiment, mapped with `exec::parallel_map` in index order
// so the printed table is identical regardless of thread count
// (`OWNSIM_THREADS` overrides it).
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/parallel_for.hpp"
#include "metrics/table_io.hpp"

int main() {
  using namespace ownsim;
  bench::print_header("256-core saturation throughput (flits/node/cycle)",
                      "Fig 7a");
  const WallTimer timer;

  const std::vector<PatternKind> patterns = paper_patterns();
  const std::vector<TopologyKind> topologies = paper_topologies();
  std::vector<std::string> header = {"network"};
  for (PatternKind p : patterns) header.emplace_back(to_string(p));
  Table table(std::move(header));

  const std::vector<double> cells = exec::parallel_map(
      exec::default_threads(), topologies.size() * patterns.size(),
      [&](std::size_t i) {
        ExperimentConfig experiment =
            bench::base_experiment(topologies[i / patterns.size()], 256);
        experiment.pattern = patterns[i % patterns.size()];
        experiment.rate = bench::overdrive_rate(256);
        experiment.phases.drain_limit = 4000;  // overdriven: no full drain
        return run_experiment(experiment).run.throughput;
      });

  for (std::size_t t = 0; t < topologies.size(); ++t) {
    std::vector<std::string> row = {to_string(topologies[t])};
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      row.push_back(Table::num(cells[t * patterns.size() + p], 4));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nOffered load " << bench::overdrive_rate(256)
            << " flits/node/cycle (beyond saturation for every network).\n";

  BenchRecord record;
  record.bench = "bench_fig7a";
  record.paper_ref = "Fig 7a";
  record.config = bench::phase_preset_name();
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      record.metrics.push_back(
          {std::string("throughput.") + to_string(topologies[t]) + '.' +
               to_string(patterns[p]),
           cells[t * patterns.size() + p], "flits/node/cycle",
           /*deterministic=*/true, "higher"});
    }
  }
  record.metrics.push_back(
      {"wall_seconds", timer.seconds(), "s", /*deterministic=*/false,
       "lower"});
  emit_bench_json(record);
  return 0;
}
