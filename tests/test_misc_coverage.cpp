// Remaining coverage: latency histograms, O1TURN class usage under live
// traffic, and trace injector measurement windows.
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "helpers.hpp"
#include "metrics/runner.hpp"
#include "topology/cmesh.hpp"
#include "traffic/injector.hpp"
#include "traffic/trace.hpp"

namespace ownsim {
namespace {

TEST(Runner, LatencyHistogramMatchesStats) {
  Network net(testing::ring_spec(8));
  TrafficPattern pattern(PatternKind::kUniform, 8);
  Injector::Params params;
  params.rate = 0.05;
  Injector injector(&net, pattern, params);
  net.engine().add(&injector);
  RunPhases phases;
  phases.warmup = 500;
  phases.measure = 2000;
  const RunResult result = run_load_point(net, injector, phases);
  ASSERT_TRUE(result.drained);
  EXPECT_EQ(result.latency_histogram.total(), result.measured_packets);
  EXPECT_EQ(result.latency_histogram.underflow(), 0);
  // Median estimate from the histogram agrees with the exact p50.
  EXPECT_NEAR(result.latency_histogram.quantile(0.5), result.p50_latency,
              result.latency_histogram.bin_width() + 1.0);
  EXPECT_LE(result.p50_latency, result.p99_latency);
  EXPECT_LE(result.p99_latency, result.max_latency);
}

TEST(O1Turn, BothRoutingFunctionsCarryTraffic) {
  TopologyOptions options;
  options.num_cores = 256;
  options.cmesh_o1turn = true;
  Network net(build_cmesh(options));
  TrafficPattern pattern(PatternKind::kUniform, 256);
  Injector::Params params;
  params.rate = 0.004;
  Injector injector(&net, pattern, params);
  net.engine().add(&injector);
  net.engine().run(4000);
  // Compare flows on the two opposing first-hop links out of a corner: with
  // XY-only, corner router 0 never sends south toward a same-column
  // destination first... instead verify globally: roughly half the packets
  // were injected on each class by sampling the ejected population's hops
  // through E/W vs N/S first links. Simplest robust check: both VC classes
  // appear at an interior router's switch traffic.
  // (Classes are invisible post-ejection, so check channel usage symmetry:
  // under XY, column links near sources carry only Y-phase traffic; under
  // O1TURN they also carry first-phase traffic, raising their share.)
  std::int64_t row_flits = 0;
  std::int64_t col_flits = 0;
  for (std::size_t i = 0; i < net.num_network_channels(); ++i) {
    const Channel& channel = net.network_channel(i);
    const LinkSpec& link = net.spec().links[i];
    const bool row = (link.src_router / 8) == (link.dst_router / 8);
    (row ? row_flits : col_flits) += channel.counters().flits;
  }
  // Uniform + symmetric O1TURN: row and column links carry near-equal load.
  const double ratio = static_cast<double>(row_flits) /
                       static_cast<double>(col_flits);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

TEST(TraceInjector, MeasurementWindowTagsPackets) {
  Network net(testing::ring_spec(8));
  std::vector<TraceRecord> records;
  for (Cycle t = 0; t < 100; t += 10) {
    records.push_back({t, static_cast<NodeId>(t / 10 % 8),
                       static_cast<NodeId>((t / 10 + 3) % 8), 2});
  }
  TraceInjector injector(&net, Trace(records), 128, false);
  injector.set_measure_window(30, 70);
  net.engine().add(&injector);
  ASSERT_TRUE(net.engine().run_until(
      [&] { return injector.finished() && net.drained(); }, 5000));
  EXPECT_EQ(injector.packets_offered(), 10);
  EXPECT_EQ(injector.measured_offered(), 4);  // cycles 30,40,50,60
  int measured = 0;
  for (const auto& rec : net.nic().records()) measured += rec.measured;
  EXPECT_EQ(measured, 4);
}

TEST(Units, PowerConversionHelpers) {
  EXPECT_DOUBLE_EQ(units::epb_to_power_w(1e-12, 32e9), 0.032);
  EXPECT_NEAR(units::ratio_to_db(100.0), 20.0, 1e-12);
}

}  // namespace
}  // namespace ownsim
