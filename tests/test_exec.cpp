// Tests for the parallel execution subsystem (src/exec): cancellation,
// parallel_for/map — and the headline guarantee of the whole layer: a
// latency sweep is bit-identical for 1 and N threads.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/cancellation.hpp"
#include "exec/parallel_for.hpp"
#include "driver/simulate.hpp"
#include "helpers.hpp"
#include "metrics/sweep.hpp"

namespace ownsim {
namespace {

// ---- Cancellation ------------------------------------------------------------

TEST(Cancellation, DefaultTokenNeverCancels) {
  const exec::CancellationToken token;
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, TokenObservesSource) {
  exec::CancellationSource source;
  const exec::CancellationToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  source.request_cancel();
  EXPECT_TRUE(token.cancelled());
}

// ---- parallel_for / parallel_map ---------------------------------------------

TEST(ParallelFor, CoversEveryIndexOnce10k) {
  constexpr std::size_t kN = 10000;
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<std::atomic<int>> hits(kN);
    exec::parallel_for(threads, kN,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, ClampsZeroThreadsToOne) {
  // threads = 0 runs every iteration, all on the calling thread.
  constexpr std::size_t kN = 100;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(kN, 0);
  std::vector<std::thread::id> ran_on(kN);
  exec::parallel_for(0, kN, [&](std::size_t i) {
    ++hits[i];
    ran_on[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
    ASSERT_EQ(ran_on[i], caller) << "index " << i;
  }
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  exec::parallel_for(2, 0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, RethrowsFirstBodyException) {
  EXPECT_THROW(exec::parallel_for(4, 1000,
                                  [](std::size_t i) {
                                    if (i == 123) {
                                      throw std::runtime_error("body boom");
                                    }
                                  }),
               std::runtime_error);
}

TEST(ParallelMap, ResultsInIndexOrder) {
  const std::vector<std::size_t> squares = exec::parallel_map(
      4, 1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 1000u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    ASSERT_EQ(squares[i], i * i);
  }
}

// ---- sweep determinism -------------------------------------------------------

void expect_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.zero_load_latency, b.zero_load_latency);
  EXPECT_EQ(a.saturation_rate, b.saturation_rate);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    const RunResult& x = a.points[i].result;
    const RunResult& y = b.points[i].result;
    EXPECT_EQ(a.points[i].rate, b.points[i].rate);
    EXPECT_EQ(x.offered_rate, y.offered_rate);
    EXPECT_EQ(x.throughput, y.throughput);
    EXPECT_EQ(x.avg_latency, y.avg_latency);
    EXPECT_EQ(x.avg_net_latency, y.avg_net_latency);
    EXPECT_EQ(x.p50_latency, y.p50_latency);
    EXPECT_EQ(x.p99_latency, y.p99_latency);
    EXPECT_EQ(x.max_latency, y.max_latency);
    EXPECT_EQ(x.avg_hops, y.avg_hops);
    EXPECT_EQ(x.measured_packets, y.measured_packets);
    EXPECT_EQ(x.drained, y.drained);
    EXPECT_EQ(x.cycles_simulated, y.cycles_simulated);
    EXPECT_EQ(x.latency_histogram.total(), y.latency_histogram.total());
    EXPECT_EQ(x.latency_histogram.underflow(),
              y.latency_histogram.underflow());
    EXPECT_EQ(x.latency_histogram.overflow(), y.latency_histogram.overflow());
    EXPECT_EQ(x.latency_histogram.counts(), y.latency_histogram.counts());
  }
}

TEST(SweepDeterminism, Own256BitIdenticalAcrossThreadCounts) {
  TopologyOptions topo;
  topo.num_cores = 256;
  const NetworkFactory factory =
      make_network_factory(TopologyKind::kOwn, topo);

  SweepOptions options;
  options.rates = {0.002, 0.004, 0.006};
  options.phases.warmup = 300;
  options.phases.measure = 800;
  options.phases.drain_limit = 8000;
  options.stop_after_saturation = false;
  options.master_seed = 42;

  options.threads = 1;
  const SweepResult serial = latency_sweep(factory, options);
  EXPECT_EQ(serial.telemetry.threads, 1u);
  EXPECT_EQ(serial.telemetry.points_run, 4);  // 3 rates + probe
  EXPECT_GT(serial.telemetry.cycles_simulated, 0);

  options.threads = 4;
  const SweepResult parallel = latency_sweep(factory, options);
  EXPECT_EQ(parallel.telemetry.threads, 4u);

  expect_identical(serial, parallel);
}

TEST(SweepDeterminism, SpeculativeStopMatchesSerialStop) {
  // The ring saturates quickly, so the speculative tail past the knee gets
  // cancelled in the parallel run; the assembled result must still equal
  // the serial stop-at-saturation sweep.
  const NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(8));
  };
  SweepOptions options;
  options.rates = {0.02, 0.05, 0.1, 0.3, 0.6, 0.8, 0.9, 1.0};
  options.phases.warmup = 300;
  options.phases.measure = 1000;
  options.phases.drain_limit = 8000;
  options.stop_after_saturation = true;
  options.master_seed = 7;

  options.threads = 1;
  const SweepResult serial = latency_sweep(factory, options);
  EXPECT_LT(serial.points.size(), options.rates.size());  // it did stop

  options.threads = 4;
  const SweepResult parallel = latency_sweep(factory, options);
  expect_identical(serial, parallel);
}

TEST(SweepDeterminism, MasterSeedSelectsDifferentStreams) {
  const NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(8));
  };
  SweepOptions options;
  options.rates = {0.05};
  options.phases.warmup = 300;
  options.phases.measure = 1500;
  options.phases.drain_limit = 8000;
  options.stop_after_saturation = false;

  options.master_seed = 1;
  const SweepResult a = latency_sweep(factory, options);
  options.master_seed = 2;
  const SweepResult b = latency_sweep(factory, options);
  ASSERT_EQ(a.points.size(), 1u);
  ASSERT_EQ(b.points.size(), 1u);
  // Different master seeds must drive different Bernoulli streams: the
  // measured populations cannot coincide on every statistic.
  const RunResult& x = a.points[0].result;
  const RunResult& y = b.points[0].result;
  EXPECT_TRUE(x.measured_packets != y.measured_packets ||
              x.avg_latency != y.avg_latency ||
              x.max_latency != y.max_latency);
}

TEST(SweepDeterminism, ProgressCallbackSeesEveryPoint) {
  const NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(6));
  };
  SweepOptions options;
  options.rates = {0.02, 0.05, 0.1};
  options.phases.warmup = 200;
  options.phases.measure = 500;
  options.phases.drain_limit = 5000;
  options.stop_after_saturation = false;
  options.threads = 2;
  std::mutex mu;
  std::vector<SweepProgress> snapshots;
  options.progress = [&](const SweepProgress& progress) {
    std::lock_guard<std::mutex> lock(mu);
    snapshots.push_back(progress);
  };
  const SweepResult sweep = latency_sweep(factory, options);
  ASSERT_EQ(snapshots.size(), 4u);  // 3 rates + probe
  for (const SweepProgress& snapshot : snapshots) {
    EXPECT_EQ(snapshot.total, 4);
    EXPECT_GT(snapshot.completed, 0);
    EXPECT_LE(snapshot.completed, 4);
    EXPECT_GT(snapshot.cycles_simulated, 0);
  }
  EXPECT_EQ(sweep.telemetry.points_run, 4);
  EXPECT_EQ(sweep.telemetry.cycles_simulated,
            snapshots.back().cycles_simulated);
}

TEST(SweepDeterminism, OneThreadRunsCostliestFirstUnlessTheTailMayStop) {
  // On one thread points finish in the order they start. A sweep that runs
  // every point starts the highest rate first and the zero-load probe
  // (rate -1 in progress) last; one that may stop at the knee starts with
  // the probe and climbs.
  const NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(6));
  };
  SweepOptions options;
  options.rates = {0.01, 0.02, 0.03};
  options.zero_load_rate = 0.005;  // enough packets for a zero-load latency
  options.phases.warmup = 200;
  options.phases.measure = 500;
  options.phases.drain_limit = 5000;
  options.threads = 1;
  std::vector<double> seen;
  options.progress = [&](const SweepProgress& progress) {
    seen.push_back(progress.rate);
  };

  options.stop_after_saturation = false;
  const SweepResult all = latency_sweep(factory, options);
  EXPECT_EQ(seen, (std::vector<double>{0.03, 0.02, 0.01, -1.0}));

  seen.clear();
  options.stop_after_saturation = true;
  const SweepResult stopping = latency_sweep(factory, options);
  EXPECT_EQ(seen, (std::vector<double>{-1.0, 0.01, 0.02, 0.03}));

  // Nothing saturates, so both orders assemble the same sweep.
  EXPECT_EQ(stopping.points.size(), options.rates.size());
  expect_identical(all, stopping);
}

TEST(SweepDeterminism, RethrowsTheLowestIndexedPointsException) {
  // Every point runs even when another one throws, and the sweep rethrows
  // the exception of the lowest rate, whatever order the points settle in:
  // on one thread 0.03 starts first and throws first.
  const NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(6));
  };
  SweepOptions options;
  options.rates = {0.01, 0.02, 0.03};
  options.phases.warmup = 200;
  options.phases.measure = 500;
  options.phases.drain_limit = 5000;
  options.stop_after_saturation = false;
  options.progress = [](const SweepProgress& progress) {
    if (progress.rate == 0.01 || progress.rate == 0.03) {
      throw std::runtime_error("point " + std::to_string(progress.rate));
    }
  };
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    options.threads = threads;
    try {
      latency_sweep(factory, options);
      ADD_FAILURE() << "the sweep swallowed its points' exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "point " + std::to_string(0.01));
    }
  }
}

}  // namespace
}  // namespace ownsim
