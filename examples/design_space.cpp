// Wireless design-space explorer: reproduces the Section V.B reasoning that
// selects configuration 4.
//
//   ./design_space
//
// For every (Table IV configuration x Table III scenario) point it resolves
// the channel-to-band assignment, prints per-distance-class energy figures,
// and simulates OWN-256 to report the resulting wireless and total power —
// then names the winner. The eight simulation points are independent, so
// they are mapped with `exec::parallel_map` (`OWNSIM_THREADS` overrides the
// thread count).
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "driver/simulate.hpp"
#include "exec/parallel_for.hpp"
#include "metrics/bench_json.hpp"
#include "metrics/table_io.hpp"

int main() {
  using namespace ownsim;

  std::cout << "OWN-256 wireless design space (Table III x Table IV)\n";

  struct DesignPoint {
    Scenario scenario;
    OwnConfig config;
  };
  std::vector<DesignPoint> points;
  for (Scenario scenario : {Scenario::kIdeal, Scenario::kConservative}) {
    for (OwnConfig config : all_configs()) points.push_back({scenario, config});
  }

  const unsigned threads = exec::default_threads();
  const WallTimer timer;
  const std::vector<ExperimentResult> results = exec::parallel_map(
      threads, points.size(), [&points](std::size_t i) {
        ExperimentConfig experiment;
        experiment.topology = TopologyKind::kOwn;
        experiment.options.num_cores = 256;
        experiment.rate = 0.005;
        experiment.own_config = points[i].config;
        experiment.scenario = points[i].scenario;
        experiment.phases.warmup = 1500;
        experiment.phases.measure = 4000;
        return run_experiment(experiment);
      });
  const double batch_wall = timer.seconds();

  Table table({"scenario", "config", "C2C tech", "E2E tech", "SR tech",
               "mean pJ/bit", "wireless_mW", "total_W"});
  std::string best_name;
  double best_total = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DesignPoint& point = points[i];
    const PowerBreakdown& power = results[i].power;
    const ChannelEnergyModel model(point.config, point.scenario);
    double mean_epb = 0.0;
    for (const auto& a : model.assignments()) {
      mean_epb += model.epb(a.channel_id).in(1.0_pj_per_bit);
    }
    mean_epb /= static_cast<double>(model.assignments().size());
    table.add_row({to_string(point.scenario), to_string(point.config),
                   to_string(config_tech(point.config, DistanceClass::kC2C)),
                   to_string(config_tech(point.config, DistanceClass::kE2E)),
                   to_string(config_tech(point.config, DistanceClass::kSR)),
                   Table::num(mean_epb, 3),
                   Table::num(power.wireless_link_w * 1e3, 2),
                   Table::num(power.total_w(), 3)});
    if (power.total_w() < best_total) {
      best_total = power.total_w();
      best_name = std::string(to_string(point.config)) + " / " +
                  to_string(point.scenario);
    }
  }
  table.print(std::cout);
  std::cout << "\nMost power-efficient point: " << best_name << " ("
            << Table::num(best_total, 3)
            << " W total). The paper reaches the same conclusion: CMOS on the\n"
               "long/medium links with BiCMOS short-range (config 4), enabled\n"
               "by SDM frequency reuse (Section V.B).\n"
            << points.size() << " design points on " << threads
            << " threads in " << Table::num(batch_wall, 2) << " s.\n";
  return 0;
}
