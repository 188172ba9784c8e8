// Regenerates paper Fig. 8: the 1024-core evaluation.
//  (a) accepted throughput on select synthetic traces for all topologies;
//  (b) average power per packet under uniform random traffic.
// Paper shape: throughput variation across architectures is small; OptXB is
// cheapest per packet but its radix adds considerable power at this scale
// (OWN ~ +30% over OptXB); OWN lands ~3% below wireless-CMESH; CMESH is the
// most expensive.
//
// Every cell of both sections is an independent 1024-core experiment;
// they are mapped with `exec::parallel_map` in index order, so the output
// is identical for any `OWNSIM_THREADS`.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/parallel_for.hpp"
#include "metrics/table_io.hpp"

int main() {
  using namespace ownsim;
  const std::vector<TopologyKind> topologies = paper_topologies();

  bench::print_header("1024-core saturation throughput (flits/node/cycle)",
                      "Fig 8a");
  const std::vector<PatternKind> patterns = {
      PatternKind::kUniform, PatternKind::kBitReversal, PatternKind::kShuffle};
  std::vector<std::string> header = {"network"};
  for (PatternKind p : patterns) header.emplace_back(to_string(p));
  Table throughput(std::move(header));

  const std::vector<double> cells = exec::parallel_map(
      exec::default_threads(), topologies.size() * patterns.size(),
      [&](std::size_t i) {
        ExperimentConfig experiment =
            bench::base_experiment(topologies[i / patterns.size()], 1024);
        experiment.pattern = patterns[i % patterns.size()];
        experiment.rate = bench::overdrive_rate(1024);
        experiment.phases.measure = 3000;
        experiment.phases.drain_limit = 3000;  // overdriven: no full drain
        return run_experiment(experiment).run.throughput;
      });
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    std::vector<std::string> row = {to_string(topologies[t])};
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      row.push_back(Table::num(cells[t * patterns.size() + p], 5));
    }
    throughput.add_row(std::move(row));
  }
  throughput.print(std::cout);

  bench::print_header("1024-core average power per packet, uniform random",
                      "Fig 8b");
  Table power({"network", "total_W", "router_W", "photonic_W", "wireless_W",
               "electrical_W", "pJ/packet"});
  const std::vector<ExperimentResult> results = exec::parallel_map(
      exec::default_threads(), topologies.size(), [&](std::size_t t) {
        return run_experiment(bench::base_experiment(topologies[t], 1024));
      });
  for (std::size_t t = 0; t < topologies.size(); ++t) {
    const PowerBreakdown& p = results[t].power;
    power.add_row({to_string(topologies[t]), Table::num(p.total_w(), 3),
                   Table::num(p.router_w(), 3), Table::num(p.photonic_w(), 3),
                   Table::num(p.wireless_w(), 3),
                   Table::num(p.electrical_link_w, 3),
                   Table::num(results[t].energy_per_packet_pj, 0)});
  }
  power.print(std::cout);
  std::cout << "\nOWN-1024 uses configuration 4 with all 16 SWMR channels\n"
               "(12 inter-group + 4 intra-group), as in Section V.C.\n";
  return 0;
}
