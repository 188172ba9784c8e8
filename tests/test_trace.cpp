// Tests for trace-driven traffic: record-order validation, the bursty
// generator's statistics, and end-to-end replay through a live network.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "topology/registry.hpp"
#include "traffic/trace.hpp"

namespace ownsim {
namespace {

TEST(Trace, RejectsMalformedInput) {
  EXPECT_THROW(Trace({{5, 1, 2, 4}, {3, 1, 2, 4}}), std::runtime_error);
  const Trace ordered({{0, 1, 2, 4}, {0, 3, 0, 1}, {5, 2, 1, 8}});
  EXPECT_EQ(ordered.max_node(), 4);
  EXPECT_EQ(ordered.total_flits(), 13);
  EXPECT_EQ(ordered.duration(), 6);
}

TEST(BurstyTrace, IsDeterministicPerSeed) {
  BurstyTraceParams params;
  params.num_nodes = 8;
  params.duration = 300;
  const Trace a = generate_bursty_trace(params);
  const Trace b = generate_bursty_trace(params);
  EXPECT_EQ(a.size(), b.size());
  params.seed = 2;
  const Trace c = generate_bursty_trace(params);
  EXPECT_NE(a.size(), c.size());  // overwhelmingly likely
}

TEST(BurstyTrace, IsBurstierThanPoisson) {
  // Over-dispersion shows in windowed counts: the on/off phases correlate
  // arrivals, so 100-cycle window counts have variance well above their
  // mean, while a Poisson process has var == mean at any window size.
  BurstyTraceParams params;
  params.num_nodes = 16;
  params.duration = 20000;
  const Trace trace = generate_bursty_trace(params);
  const Cycle window = 100;
  std::vector<int> per_window(
      static_cast<std::size_t>(params.duration / window), 0);
  for (const auto& rec : trace.records()) {
    ++per_window[static_cast<std::size_t>(rec.cycle / window)];
  }
  double mean = 0;
  for (int c : per_window) mean += c;
  mean /= static_cast<double>(per_window.size());
  double var = 0;
  for (int c : per_window) var += (c - mean) * (c - mean);
  var /= static_cast<double>(per_window.size());
  EXPECT_GT(var, 2.0 * mean);
}

TEST(BurstyTrace, LocalityBiasesDestinations) {
  BurstyTraceParams params;
  params.num_nodes = 64;
  params.duration = 4000;
  params.locality = 0.9;
  params.neighborhood = 4;
  const Trace trace = generate_bursty_trace(params);
  int local = 0;
  for (const auto& rec : trace.records()) {
    const int fwd = (rec.dst - rec.src + params.num_nodes) % params.num_nodes;
    if (fwd >= 1 && fwd <= params.neighborhood) ++local;
  }
  EXPECT_GT(static_cast<double>(local) / static_cast<double>(trace.size()),
            0.8);
}

TEST(TraceInjector, ReplaysIntoNetwork) {
  Network net(testing::ring_spec(8));
  std::vector<TraceRecord> records = {
      {0, 0, 3, 4}, {10, 1, 5, 2}, {10, 2, 6, 1}, {50, 7, 0, 4}};
  TraceInjector injector(&net, Trace(records), 128, /*loop=*/false);
  net.engine().add(&injector);
  ASSERT_TRUE(net.engine().run_until([&] { return net.drained() &&
                                            injector.finished(); },
                                     5000));
  EXPECT_EQ(injector.packets_offered(), 4);
  EXPECT_EQ(net.nic().records().size(), 4u);
}

TEST(TraceInjector, LoopingRepeatsTheTrace) {
  Network net(testing::ring_spec(8));
  std::vector<TraceRecord> records = {{0, 0, 1, 1}, {9, 2, 3, 1}};
  TraceInjector injector(&net, Trace(records), 128, /*loop=*/true);
  net.engine().add(&injector);
  net.engine().run(100);  // duration 10 -> 10 full epochs
  EXPECT_EQ(injector.packets_offered(), 20);
}

TEST(TraceInjector, RejectsOversizedTrace) {
  Network net(testing::ring_spec(4));
  std::vector<TraceRecord> records = {{0, 0, 9, 1}};
  EXPECT_THROW(TraceInjector(&net, Trace(records), 128, false),
               std::invalid_argument);
}

TEST(TraceInjector, BurstyTraceDrainsOnOwn256) {
  TopologyOptions options;
  options.num_cores = 256;
  Network net(build_topology(TopologyKind::kOwn, options));
  BurstyTraceParams params;
  params.num_nodes = 256;
  params.duration = 2000;
  params.on_rate = 0.01;
  TraceInjector injector(&net, generate_bursty_trace(params), 128, false);
  net.engine().add(&injector);
  ASSERT_TRUE(net.engine().run_until(
      [&] { return injector.finished() && net.drained(); }, 100000));
  EXPECT_EQ(net.nic().packets_ejected(), injector.packets_offered());
}

}  // namespace
}  // namespace ownsim
