// Integration tests for the router/channel/NIC core on tiny hand-built
// networks: delivery, latency, ordering, wormhole flow control, credits.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "helpers.hpp"
#include "network/network.hpp"

namespace ownsim {
namespace {

using testing::drain;
using testing::ring_spec;
using testing::two_router_spec;

void send(Network& net, NodeId src, NodeId dst, int flits = 4) {
  const int cls = net.injection_vc_class(src, dst);
  net.nic().enqueue_packet(src, dst, net.router_of(dst), flits, 128, cls,
                           net.engine().now(), true);
}

TEST(NetworkBasic, SinglePacketDelivered) {
  Network net(two_router_spec());
  send(net, 0, 1);
  ASSERT_TRUE(drain(net, 200));
  ASSERT_EQ(net.nic().records().size(), 1u);
  const PacketRecord& rec = net.nic().records()[0];
  EXPECT_EQ(rec.src, 0);
  EXPECT_EQ(rec.dst, 1);
  EXPECT_EQ(rec.size_flits, 4);
  EXPECT_EQ(rec.hops, 2);  // src router + dst router traversals
}

TEST(NetworkBasic, ZeroLoadLatencyMatchesPipelineModel) {
  // Hop anatomy: inject channel (1) + per-router ~4 stage cycles + link
  // latency. For 2 routers the total should land in a tight window.
  Network net(two_router_spec());
  send(net, 0, 1, 1);  // single-flit packet
  ASSERT_TRUE(drain(net, 200));
  const PacketRecord& rec = net.nic().records()[0];
  const Cycle lat = rec.total_latency();
  EXPECT_GE(lat, 8);
  EXPECT_LE(lat, 16);
}

TEST(NetworkBasic, SelfTrafficLoopsThroughLocalRouter) {
  Network net(two_router_spec());
  send(net, 0, 0);
  ASSERT_TRUE(drain(net, 200));
  ASSERT_EQ(net.nic().records().size(), 1u);
  EXPECT_EQ(net.nic().records()[0].hops, 1);
}

TEST(NetworkBasic, PacketsBetweenSamePairStayOrdered) {
  Network net(two_router_spec());
  for (int i = 0; i < 20; ++i) send(net, 0, 1);
  ASSERT_TRUE(drain(net, 2000));
  ASSERT_EQ(net.nic().records().size(), 20u);
  PacketId prev = -1;
  for (const auto& rec : net.nic().records()) {
    EXPECT_GT(rec.packet, prev);  // same source VC class: FIFO per pair
    prev = rec.packet;
  }
}

TEST(NetworkBasic, BidirectionalTrafficBothDelivered) {
  Network net(two_router_spec());
  for (int i = 0; i < 10; ++i) {
    send(net, 0, 1);
    send(net, 1, 0);
  }
  ASSERT_TRUE(drain(net, 2000));
  EXPECT_EQ(net.nic().records().size(), 20u);
}

TEST(NetworkBasic, SerializationDelaySlowsLink) {
  Network fast(two_router_spec(4, 8, 1, 1));
  Network slow(two_router_spec(4, 8, 1, 4));
  send(fast, 0, 1, 4);
  send(slow, 0, 1, 4);
  ASSERT_TRUE(drain(fast, 500));
  ASSERT_TRUE(drain(slow, 500));
  const Cycle f = fast.nic().records()[0].total_latency();
  const Cycle s = slow.nic().records()[0].total_latency();
  // 4 flits at 4 cycles/flit add ~3*3 extra serialization cycles.
  EXPECT_GE(s, f + 6);
}

TEST(NetworkBasic, LinkLatencyAddsUp) {
  Network near(two_router_spec(4, 8, 1, 1));
  Network far(two_router_spec(4, 8, 9, 1));
  send(near, 0, 1, 1);
  send(far, 0, 1, 1);
  ASSERT_TRUE(drain(near, 500));
  ASSERT_TRUE(drain(far, 500));
  EXPECT_EQ(far.nic().records()[0].total_latency(),
            near.nic().records()[0].total_latency() + 8);
}

TEST(NetworkBasic, CreditsRecoverAfterBurst) {
  Network net(two_router_spec(2, 2));  // tiny buffers force backpressure
  for (int i = 0; i < 50; ++i) send(net, 0, 1, 4);
  ASSERT_TRUE(drain(net, 20000));
  EXPECT_EQ(net.nic().records().size(), 50u);
  // After drain, sender-side credits must be fully restored.
  const Channel& fwd = net.network_channel(0);
  for (VcId vc = 0; vc < fwd.num_vcs(); ++vc) {
    EXPECT_EQ(fwd.credits(vc), 2) << "vc " << vc;
    EXPECT_FALSE(fwd.vc_busy(vc));
  }
}

TEST(NetworkBasic, RingAllToAllDelivers) {
  const int n = 8;
  Network net(ring_spec(n));
  int sent = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      send(net, s, d);
      ++sent;
    }
  }
  ASSERT_TRUE(drain(net, 50000));
  EXPECT_EQ(net.nic().records().size(), static_cast<std::size_t>(sent));
}

TEST(NetworkBasic, RingRandomStressDrains) {
  const int n = 6;
  Network net(ring_spec(n, 4, 4));
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const auto s = static_cast<NodeId>(rng.below(n));
    const auto d = static_cast<NodeId>(rng.below(n));
    send(net, s, d, 1 + static_cast<int>(rng.below(6)));
  }
  ASSERT_TRUE(drain(net, 200000));
  EXPECT_EQ(net.nic().records().size(), 500u);
}

TEST(NetworkBasic, HopCountsMatchRingDistance) {
  const int n = 8;
  Network net(ring_spec(n));
  send(net, 1, 5, 1);
  ASSERT_TRUE(drain(net, 1000));
  // 1 -> 5 clockwise = 4 links = 5 router traversals.
  EXPECT_EQ(net.nic().records()[0].hops, 5);
}

TEST(NetworkBasic, CountersTrackTraffic) {
  Network net(two_router_spec());
  for (int i = 0; i < 5; ++i) send(net, 0, 1, 4);
  ASSERT_TRUE(drain(net, 2000));
  EXPECT_EQ(net.network_channel(0).counters().flits, 20);
  EXPECT_EQ(net.network_channel(0).counters().bits, 20 * 128);
  EXPECT_EQ(net.network_channel(1).counters().flits, 0);
  // Each flit is buffered and crosses the crossbar at both routers.
  EXPECT_EQ(net.router(0).counters().crossbar_flits, 20);
  EXPECT_EQ(net.router(1).counters().crossbar_flits, 20);
  EXPECT_EQ(net.router(0).counters().route_computations, 5);
}

TEST(NetworkBasic, ValidateRejectsBadSpecs) {
  {
    NetworkSpec spec = two_router_spec();
    spec.links[0].src_port = 7;  // out of range
    EXPECT_THROW(Network net(std::move(spec)), std::runtime_error);
  }
  {
    NetworkSpec spec = two_router_spec();
    spec.links.push_back(spec.links[0]);  // double-wired port
    EXPECT_THROW(Network net(std::move(spec)), std::runtime_error);
  }
  {
    NetworkSpec spec = two_router_spec();
    spec.route_table[0][1].out_port = 3;  // bad route target
    EXPECT_THROW(Network net(std::move(spec)), std::runtime_error);
  }
  {
    NetworkSpec spec = two_router_spec();
    spec.vc_classes = {{0, 9}};  // exceeds num_vcs
    EXPECT_THROW(Network net(std::move(spec)), std::runtime_error);
  }
  // VC count and buffer depth are bounded by name: one 64-bit mask bit per
  // VC, and every buffer slot is allocated up front.
  const auto expect_rejected = [](int num_vcs, int buffer_depth,
                                  const std::string& field) {
    NetworkSpec spec = two_router_spec();
    spec.num_vcs = num_vcs;
    spec.buffer_depth = buffer_depth;
    try {
      spec.validate();
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  expect_rejected(0, 8, "num_vcs");
  expect_rejected(Router::kMaxVcs + 1, 8, "num_vcs");
  expect_rejected(4, 0, "buffer_depth");
  expect_rejected(4, NetworkSpec::kMaxBufferDepth + 1, "buffer_depth");
  NetworkSpec widest = two_router_spec(Router::kMaxVcs, 1);
  EXPECT_NO_THROW(widest.validate());
}

}  // namespace
}  // namespace ownsim
