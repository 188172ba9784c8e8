// Tests for traffic patterns and the Bernoulli injector, including
// property-style parameterized checks on permutation invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "helpers.hpp"
#include "metrics/runner.hpp"
#include "topology/registry.hpp"
#include "traffic/injector.hpp"
#include "traffic/patterns.hpp"

namespace ownsim {
namespace {

TEST(Patterns, ParseAcceptsPaperNames) {
  EXPECT_EQ(parse_pattern("UN"), PatternKind::kUniform);
  EXPECT_EQ(parse_pattern("BR"), PatternKind::kBitReversal);
  EXPECT_EQ(parse_pattern("MT"), PatternKind::kTranspose);
  EXPECT_EQ(parse_pattern("PS"), PatternKind::kShuffle);
  EXPECT_EQ(parse_pattern("NBR"), PatternKind::kNeighbor);
  EXPECT_THROW(parse_pattern("nope"), std::invalid_argument);
}

TEST(Patterns, BitReversalKnownValues) {
  TrafficPattern p(PatternKind::kBitReversal, 256);
  Rng rng(1);
  EXPECT_EQ(p.dest(0, rng), 0);
  EXPECT_EQ(p.dest(1, rng), 128);    // 00000001 -> 10000000
  EXPECT_EQ(p.dest(0b10110001, rng), 0b10001101);
}

TEST(Patterns, TransposeKnownValues) {
  TrafficPattern p(PatternKind::kTranspose, 256);
  Rng rng(1);
  // (row, col) swap on a 16x16 grid: node 0x12 -> 0x21.
  EXPECT_EQ(p.dest(0x12, rng), 0x21);
  EXPECT_EQ(p.dest(0xF0, rng), 0x0F);
}

TEST(Patterns, ShuffleRotatesLeft) {
  TrafficPattern p(PatternKind::kShuffle, 8);
  Rng rng(1);
  EXPECT_EQ(p.dest(0b001, rng), 0b010);
  EXPECT_EQ(p.dest(0b100, rng), 0b001);
  EXPECT_EQ(p.dest(0b110, rng), 0b101);
}

TEST(Patterns, RejectsNonPow2ForBitPatterns) {
  EXPECT_THROW(TrafficPattern(PatternKind::kBitReversal, 100),
               std::invalid_argument);
  EXPECT_NO_THROW(TrafficPattern(PatternKind::kUniform, 100));
  EXPECT_NO_THROW(TrafficPattern(PatternKind::kNeighbor, 100));
}

TEST(Patterns, UniformCoversAllDestinations) {
  TrafficPattern p(PatternKind::kUniform, 16);
  Rng rng(3);
  std::set<NodeId> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(p.dest(0, rng));
  EXPECT_EQ(seen.size(), 16u);
}

TEST(Patterns, HotspotSkewsToNodeZero) {
  TrafficPattern p(PatternKind::kHotspot, 64);
  Rng rng(4);
  int zero = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (p.dest(5, rng) == 0) ++zero;
  }
  // 20% targeted + 1/64 of the remaining uniform share.
  EXPECT_NEAR(static_cast<double>(zero) / n, 0.2 + 0.8 / 64, 0.02);
}

// Property: deterministic paper patterns are permutations (bijective).
class PermutationPattern
    : public ::testing::TestWithParam<std::tuple<PatternKind, int>> {};

TEST_P(PermutationPattern, IsBijective) {
  const auto [kind, n] = GetParam();
  TrafficPattern p(kind, n);
  Rng rng(1);
  std::set<NodeId> images;
  for (NodeId src = 0; src < n; ++src) {
    const NodeId d = p.dest(src, rng);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, n);
    images.insert(d);
  }
  EXPECT_EQ(images.size(), static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, PermutationPattern,
    ::testing::Combine(::testing::Values(PatternKind::kBitReversal,
                                         PatternKind::kTranspose,
                                         PatternKind::kShuffle,
                                         PatternKind::kNeighbor,
                                         PatternKind::kBitComplement,
                                         PatternKind::kTornado),
                       ::testing::Values(16, 64, 256, 1024)));

// ---- Injector ----------------------------------------------------------------

TEST(Injector, OfferedLoadMatchesRate) {
  Network net(testing::ring_spec(8));
  TrafficPattern pattern(PatternKind::kUniform, 8);
  Injector::Params params;
  params.rate = 0.2;
  params.packet_flits = 4;
  Injector injector(&net, pattern, params);
  net.engine().add(&injector);
  net.engine().run(20000);
  // Expected packets = nodes * cycles * rate / flits = 8*20000*0.05 = 8000.
  EXPECT_NEAR(static_cast<double>(injector.packets_offered()), 8000, 300);
}

TEST(Injector, DeterministicAcrossRuns) {
  auto run_once = [] {
    Network net(testing::ring_spec(8));
    TrafficPattern pattern(PatternKind::kUniform, 8);
    Injector::Params params;
    params.rate = 0.15;
    params.master_seed = 99;
    Injector injector(&net, pattern, params);
    net.engine().add(&injector);
    net.engine().run(5000);
    return std::make_pair(injector.packets_offered(),
                          net.nic().flits_ejected());
  };
  EXPECT_EQ(run_once(), run_once());
}

/// SHA-256 over "created src dst packet" of every packet a uniform CMESH-64
/// injector offers across enable -> pause -> resume -> pause, drained to the
/// last packet. The pause strands pre-drawn fires (the missed-fire restart
/// path) and stale lookahead batches; CMESH adds the per-packet alt-route
/// coin to each node's stream.
std::string pause_resume_stream_digest(KernelMode mode) {
  TopologyOptions options;
  options.num_cores = 64;
  Network net(build_topology(TopologyKind::kCMesh, options));
  net.engine().set_mode(mode);
  TrafficPattern pattern(PatternKind::kUniform, 64);
  Injector::Params params;
  params.rate = 0.02;
  params.master_seed = 7;
  Injector injector(&net, pattern, params);
  net.engine().add(&injector);
  net.engine().run(400);
  injector.set_enabled(false);
  net.engine().run(300);
  injector.set_enabled(true);
  net.engine().run(400);
  injector.set_enabled(false);
  EXPECT_TRUE(testing::drain(net));
  std::vector<PacketRecord> records = net.nic().records();
  std::sort(records.begin(), records.end(),
            [](const PacketRecord& a, const PacketRecord& b) {
              return a.packet < b.packet;
            });
  std::string stream;
  for (const PacketRecord& r : records) {
    stream += std::to_string(r.created) + ' ' + std::to_string(r.src) + ' ' +
              std::to_string(r.dst) + ' ' + std::to_string(r.packet) + '\n';
  }
  EXPECT_EQ(records.size(), static_cast<std::size_t>(injector.packets_offered()));
  return sha256_hex(stream);
}

TEST(Injector, PauseResumeStreamIsPinned) {
  // Recorded with the per-node scan the next-event heap replaced: the heap
  // must offer the same packets, at the same cycles, in the same id order.
  constexpr const char* kStreamDigest =
      "9d7c9d03ef979ba45c69b435d0b42a7459e3c090b520d93b1e5827a0e312deea";
  EXPECT_EQ(pause_resume_stream_digest(KernelMode::kActivity), kStreamDigest);
  EXPECT_EQ(pause_resume_stream_digest(KernelMode::kLockstep), kStreamDigest);
}

TEST(Injector, RejectsSizeMismatch) {
  Network net(testing::ring_spec(8));
  TrafficPattern pattern(PatternKind::kUniform, 16);
  EXPECT_THROW(Injector(&net, pattern, {}), std::invalid_argument);
}

TEST(Runner, LowLoadRunDrainsAndReportsSaneNumbers) {
  Network net(testing::ring_spec(8));
  TrafficPattern pattern(PatternKind::kUniform, 8);
  Injector::Params params;
  params.rate = 0.05;
  Injector injector(&net, pattern, params);
  net.engine().add(&injector);
  RunPhases phases;
  phases.warmup = 1000;
  phases.measure = 3000;
  const RunResult r = run_load_point(net, injector, phases);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.measured_packets, 50);
  EXPECT_GT(r.avg_latency, 5.0);
  EXPECT_LT(r.avg_latency, 100.0);
  EXPECT_NEAR(r.throughput, 0.05, 0.02);
  EXPECT_GE(r.p99_latency, r.avg_latency);
  EXPECT_GE(r.avg_net_latency, 5.0);
  EXPECT_LE(r.avg_net_latency, r.avg_latency);
}

}  // namespace
}  // namespace ownsim
