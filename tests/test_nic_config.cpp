// Edge-case tests for the NIC and file-based configuration.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "helpers.hpp"
#include "network/nic.hpp"

namespace ownsim {
namespace {

TEST(NicEdge, RejectsBadWiring) {
  EXPECT_THROW(Nic(0), std::invalid_argument);
  Network net(testing::two_router_spec());
  // Nodes are wired by the Network constructor; double-wiring throws.
  std::vector<VcClassRange> classes = {{0, 4}};
  Channel channel(MediumType::kElectrical, 1, 1, 4, 8, Length{}, &classes, "x");
  EXPECT_THROW(net.nic().connect(0, channel.out(), channel.in()),
               std::logic_error);
}

TEST(NicEdge, SelfPacketSingleFlit) {
  Network net(testing::two_router_spec());
  net.nic().enqueue_packet(1, 1, 1, 1, 64, 0, 0, true);
  ASSERT_TRUE(testing::drain(net, 200));
  const PacketRecord& rec = net.nic().records()[0];
  EXPECT_EQ(rec.src, 1);
  EXPECT_EQ(rec.dst, 1);
  EXPECT_EQ(rec.size_flits, 1);
  EXPECT_EQ(net.nic().flits_injected(), 1);
  EXPECT_EQ(net.nic().flits_ejected(), 1);
}

TEST(NicEdge, InjectionIsOneFlitPerCycle) {
  Network net(testing::two_router_spec());
  // 10 packets x 4 flits: at one flit/node/cycle the source queue needs at
  // least 40 cycles to empty.
  for (int i = 0; i < 10; ++i) {
    net.nic().enqueue_packet(0, 1, 1, 4, 128, 0, 0, true);
  }
  net.engine().run(20);
  EXPECT_LE(net.nic().flits_injected(), 20);
  EXPECT_GT(net.nic().flits_injected(), 10);
  ASSERT_TRUE(testing::drain(net, 2000));
}

TEST(NicEdge, QueueBackpressureCounted) {
  Network net(testing::two_router_spec());
  for (int i = 0; i < 5; ++i) {
    net.nic().enqueue_packet(0, 1, 1, 4, 128, 0, 0, false);
  }
  EXPECT_EQ(net.nic().queued_flits(), 20);
  ASSERT_TRUE(testing::drain(net, 2000));
  EXPECT_EQ(net.nic().queued_flits(), 0);
}

// ---------------------------------------------------------------------------
// The NIC's ready set (DESIGN.md §5e): eval visits only ports with work. A
// port blocked on injection credits leaves the set until its inject channel
// absorbs a credit.

constexpr KernelMode kKernels[] = {KernelMode::kLockstep,
                                   KernelMode::kActivity};

/// (packet, src, dst, created, injected, ejected) of every record.
using RecordKey = std::tuple<PacketId, NodeId, NodeId, Cycle, Cycle, Cycle>;
std::vector<RecordKey> keys(const Nic& nic) {
  std::vector<RecordKey> out;
  for (const PacketRecord& r : nic.records()) {
    out.emplace_back(r.packet, r.src, r.dst, r.created, r.injected, r.ejected);
  }
  return out;
}

TEST(NicReadySet, PortBlockedOnCreditsResumesAtLockstepCycle) {
  // R0 forwards one flit per 30 cycles, so node 0's four-credit injection
  // channel runs dry: the port drops out of the ready set and only the
  // credit the channel absorbs brings it back.
  std::vector<std::vector<RecordKey>> runs;
  for (const KernelMode mode : kKernels) {
    Network network(testing::two_router_spec(/*num_vcs=*/1, /*buffer_depth=*/4,
                                             /*latency=*/1,
                                             /*cycles_per_flit=*/30));
    network.engine().set_mode(mode);
    for (int i = 0; i < 3; ++i) {
      network.nic().enqueue_packet(0, 1, 1, 4, 128, 0, 0, true);
    }
    bool slept_with_queue = false;
    for (Cycle now = 0; now < 600; ++now) {
      network.engine().run(1);
      slept_with_queue |=
          network.nic().queued_flits() > 0 && network.nic().is_idle();
    }
    EXPECT_TRUE(network.drained()) << to_string(mode);
    if (mode != KernelMode::kLockstep) {
      EXPECT_TRUE(slept_with_queue) << to_string(mode);
    }
    runs.push_back(keys(network.nic()));
  }
  ASSERT_EQ(runs[0].size(), 3u);
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(ConfigFile, LoadsAndMerges) {
  const std::string path = ::testing::TempDir() + "/ownsim_test.conf";
  {
    std::ofstream out(path);
    out << "# comment line\n"
           "topology = own\n"
           "rate = 0.005   # trailing comment\n"
           "\n"
           "cores=256\n";
  }
  const Config config = Config::from_file(path);
  EXPECT_EQ(config.get_string("topology", ""), "own");
  EXPECT_DOUBLE_EQ(config.get_double("rate", 0), 0.005);
  EXPECT_EQ(config.get_int("cores", 0), 256);
  std::remove(path.c_str());
}

TEST(ConfigFile, MissingFileThrows) {
  EXPECT_THROW(Config::from_file("/nonexistent/path.conf"),
               std::runtime_error);
}

TEST(ConfigFile, RepositoryConfigsParse) {
  // The shipped experiment configs must stay loadable.
  const Config fig6 = Config::from_file(
      std::string(OWNSIM_SOURCE_DIR) + "/configs/own256_fig6.conf");
  EXPECT_EQ(fig6.get_string("topology", ""), "own");
  EXPECT_EQ(fig6.get_int("config", 0), 4);
  const Config cmesh = Config::from_file(
      std::string(OWNSIM_SOURCE_DIR) + "/configs/cmesh1024_saturation.conf");
  EXPECT_EQ(cmesh.get_int("cores", 0), 1024);
}

}  // namespace
}  // namespace ownsim
