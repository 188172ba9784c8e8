// OWN-256 variant builds and the online route-repair path. The report
// bytes of the runs that exercise route repair (cluster-pair kill, adaptive
// re-allocation) and of the reconfigured build are pinned by SHA-256 digest,
// and the campaign-capable and reconfigured builds must share the plain
// OWN-256 floorplan, ideal arbitration included.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/sha256.hpp"
#include "driver/simulate.hpp"
#include "network/network.hpp"
#include "topology/own.hpp"
#include "topology/own_reconfig.hpp"
#include "traffic/injector.hpp"

namespace ownsim {
namespace {

ExperimentConfig campaign_config() {
  ExperimentConfig config;
  config.options.num_cores = 256;
  config.rate = 0.004;
  config.phases.warmup = 300;
  config.phases.measure = 1500;
  config.phases.drain_limit = 20000;
  config.fault.enabled = true;
  return config;
}

// ---------------------------------------------------------------------------
// Byte pins: digests of experiment_result_json, recorded before the OWN-256
// variants moved onto the shared floorplan and route-repair path. The obs
// counters are part of the JSON, so the compiled-out registry has its own
// digests.

#if OWNSIM_OBS_ENABLED
constexpr char kKillDigest[] =
    "5f23e168b54461e0593c68423321b820a4befd959c67a2ab7779335d839cb2d1";
constexpr char kReallocDigest[] =
    "fbe7f565c127848c417ad6733e8230b759666548c87d435dde542e4b66428cab";
constexpr char kReconfigDigest[] =
    "bb276002d57bd48ff658df81134f5b7e6847152e4554d86c20796281021077a6";
#else
constexpr char kKillDigest[] =
    "cff71ccf7dff2e695a110ba3ef191c6388762aba1dbed5595b785a97a094c569";
constexpr char kReallocDigest[] =
    "d27686d18985806ff31223f7afb7b4ea3ef339c42dca409417bd28c6b1a9b4c3";
constexpr char kReconfigDigest[] =
    "4b738e233c282f9f74eba3bb20b06114e6233575f6b921e3faa2b27c713c9885";
#endif

TEST(Own256Pins, ClusterKillCampaign) {
  // fault_kill=0:2@600 at the -8 dB stress margin: CRC retransmissions plus
  // the detector's online reroute of the dead pair.
  ExperimentConfig config = campaign_config();
  config.fault.margin = Decibels{-8.0};
  fault::Event kill;
  kill.kind = fault::EventKind::kKill;
  kill.at = 600;
  kill.src_cluster = 0;
  kill.dst_cluster = 2;
  config.fault.events.push_back(kill);
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.fault.flows_degraded, 256);
  EXPECT_EQ(sha256_hex(experiment_result_json(result)), kKillDigest);
}

TEST(Own256Pins, AdaptiveReallocation) {
  // The AdaptRun.HotspotTriggersReallocation point: adapt-only, so the
  // controller patches the routes itself.
  ExperimentConfig config;
  config.options.num_cores = 256;
  config.pattern = PatternKind::kHotspot;
  config.rate = 0.002;
  config.phases.warmup = 400;
  config.phases.measure = 1600;
  config.phases.drain_limit = 20000;
  config.adapt.enabled = true;
  config.adapt.refresh = 200;
  config.adapt.sustain = 1;
  config.adapt.thermal_alpha = 1.0;
  config.adapt.temp_coeff_db_per_c = 1.0;
  config.adapt.max_backoff = 2;
  const ExperimentResult result = run_experiment(config);
  EXPECT_GT(result.adapt.reallocations, 0);
  EXPECT_EQ(sha256_hex(experiment_result_json(result)), kReallocDigest);
}

TEST(Own256Pins, ReconfiguredUniform) {
  TopologyOptions options;
  options.num_cores = 256;
  const ReconfigPlan plan = plan_reconfig(PatternKind::kUniform);
  Network network(build_own256_reconfig(options, plan));
  Injector::Params params;
  params.rate = 0.004;
  Injector injector(&network, TrafficPattern(PatternKind::kUniform, 256),
                    params);
  network.engine().add(&injector);
  RunPhases phases;
  phases.warmup = 300;
  phases.measure = 1500;
  phases.drain_limit = 20000;

  ExperimentResult result;
  result.name = "own-256-reconfig/UN";
  result.run = run_load_point(network, injector, phases);
  const EnergyModel energy(
      PowerParams{},
      ChannelEnergyModel(OwnConfig::kConfig4, Scenario::kIdeal,
                         reconfig_channel_distances(plan),
                         reconfig_sdm_groups()));
  result.power = energy.compute(network);
  result.energy_per_packet_pj = energy.energy_per_packet_pj(network);
  network.obs().for_each(
      [&result](const std::string& name, std::int64_t value) {
        result.counters.emplace_back(name, value);
      });
  EXPECT_TRUE(result.run.drained);
  EXPECT_EQ(sha256_hex(experiment_result_json(result)), kReconfigDigest);
}

// ---------------------------------------------------------------------------
// The campaign-capable build is the plain OWN-256 floorplan.

ExperimentConfig campaign_capable_config() {
  ExperimentConfig config;
  config.options.num_cores = 256;
  config.fault.enabled = true;
  return config;
}

TEST(Own256Floorplan, CampaignCapableSpecMatchesPlainBuild) {
  const NetworkSpec plain = build_own(campaign_capable_config().options);
  const NetworkSpec capable = build_experiment_spec(campaign_capable_config());
  EXPECT_EQ(capable.name, "own-256-fault0");
  ASSERT_EQ(capable.routers.size(), plain.routers.size());
  for (std::size_t r = 0; r < plain.routers.size(); ++r) {
    EXPECT_EQ(capable.routers[r].num_net_in, plain.routers[r].num_net_in) << r;
    EXPECT_EQ(capable.routers[r].num_net_out, plain.routers[r].num_net_out)
        << r;
  }
  ASSERT_EQ(capable.links.size(), plain.links.size());
  for (std::size_t i = 0; i < plain.links.size(); ++i) {
    const LinkSpec& a = capable.links[i];
    const LinkSpec& b = plain.links[i];
    EXPECT_EQ(a.src_router, b.src_router) << i;
    EXPECT_EQ(a.src_port, b.src_port) << i;
    EXPECT_EQ(a.dst_router, b.dst_router) << i;
    EXPECT_EQ(a.dst_port, b.dst_port) << i;
    EXPECT_EQ(a.latency, b.latency) << i;
    EXPECT_EQ(a.cycles_per_flit, b.cycles_per_flit) << i;
    EXPECT_EQ(a.wireless_channel, b.wireless_channel) << i;
  }
  ASSERT_EQ(capable.media.size(), plain.media.size());
  for (std::size_t m = 0; m < plain.media.size(); ++m) {
    const MediumSpec& a = capable.media[m];
    const MediumSpec& b = plain.media[m];
    EXPECT_EQ(a.writers, b.writers) << m;
    EXPECT_EQ(a.readers, b.readers) << m;
    EXPECT_EQ(a.latency, b.latency) << m;
    EXPECT_EQ(a.cycles_per_flit, b.cycles_per_flit) << m;
    EXPECT_EQ(a.arbitration, b.arbitration) << m;
  }
  // The medium names become obs counter names, pinned by report digests.
  EXPECT_EQ(capable.media.front().name, "wg-c0t0");
  EXPECT_EQ(plain.media.front().name, "wg-g0c0t0");
  ASSERT_EQ(capable.router_xy.size(), plain.router_xy.size());
  for (std::size_t r = 0; r < plain.router_xy.size(); ++r) {
    EXPECT_EQ(capable.router_xy[r].first.value(),
              plain.router_xy[r].first.value()) << r;
    EXPECT_EQ(capable.router_xy[r].second.value(),
              plain.router_xy[r].second.value()) << r;
  }
}

TEST(Own256Floorplan, CampaignCapableBuildHonoursIdealArbitration) {
  ExperimentConfig config = campaign_capable_config();
  config.options.ideal_arbitration = true;
  const NetworkSpec spec = build_experiment_spec(config);
  ASSERT_EQ(spec.media.size(), 64u);
  for (const MediumSpec& wg : spec.media) {
    EXPECT_EQ(wg.arbitration, ArbitrationKind::kIdeal) << wg.name;
  }
  // With no token to lose, a token-loss event is rejected up front.
  fault::Event loss;
  loss.kind = fault::EventKind::kTokenLoss;
  loss.at = 500;
  loss.medium = 0;
  config.fault.events.push_back(loss);
  Network network(spec);
  EXPECT_THROW(fault::FaultCampaign(&network, config.fault),
               std::invalid_argument);
}

TEST(Own256Floorplan, ReconfiguredBuildHonoursIdealArbitration) {
  TopologyOptions options;
  options.num_cores = 256;
  options.ideal_arbitration = true;
  const NetworkSpec spec =
      build_own256_reconfig(options, plan_reconfig(PatternKind::kUniform));
  for (const MediumSpec& wg : spec.media) {
    EXPECT_EQ(wg.arbitration, ArbitrationKind::kIdeal) << wg.name;
  }
}

}  // namespace
}  // namespace ownsim
