// Edge-case tests for the router microarchitecture: asymmetric port counts,
// single-VC operation, construction errors, wiring errors, state dumps,
// head-of-line behavior, and report digests pinning the arbitration order at
// VC counts the benchmark goldens never reach.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/sha256.hpp"
#include "driver/experiment_config.hpp"
#include "helpers.hpp"
#include "network/network.hpp"

namespace ownsim {
namespace {

using testing::drain;
using testing::two_router_spec;

TEST(RouterEdge, RejectsBadConstruction) {
  std::vector<VcClassRange> classes = {{0, 4}};
  Router::Params params;
  params.num_inputs = 0;
  params.num_outputs = 1;
  struct DummyOracle final : RoutingOracle {
    RouteEntry route(RouterId, const Flit&) const override { return {}; }
  } oracle;
  EXPECT_THROW(Router(params, &classes, &oracle), std::invalid_argument);
  params.num_inputs = 1;
  EXPECT_THROW(Router(params, nullptr, &oracle), std::invalid_argument);
  EXPECT_THROW(Router(params, &classes, nullptr), std::invalid_argument);
  params.num_vcs = Router::kMaxVcs + 1;  // one mask bit per VC
  EXPECT_THROW(Router(params, &classes, &oracle), std::invalid_argument);
  params.num_vcs = 4;
  std::vector<VcClassRange> too_many(Router::kMaxVcs + 1, {0, 1});
  EXPECT_THROW(Router(params, &too_many, &oracle), std::invalid_argument);
}

TEST(RouterEdge, DoubleWiringThrows) {
  std::vector<VcClassRange> classes = {{0, 4}};
  Router::Params params;
  params.num_inputs = 1;
  params.num_outputs = 1;
  struct DummyOracle final : RoutingOracle {
    RouteEntry route(RouterId, const Flit&) const override { return {}; }
  } oracle;
  Router router(params, &classes, &oracle);
  Channel channel(MediumType::kElectrical, 1, 1, 4, 8, Length{}, &classes, "c");
  router.connect_input(0, channel.in());
  EXPECT_THROW(router.connect_input(0, channel.in()), std::logic_error);
  router.connect_output(0, channel.out());
  EXPECT_THROW(router.connect_output(0, channel.out()), std::logic_error);
  EXPECT_THROW(router.connect_input(9, channel.in()), std::out_of_range);
}

TEST(RouterEdge, SingleVcNetworkStillDelivers) {
  NetworkSpec spec = two_router_spec(/*num_vcs=*/1, /*buffer_depth=*/4);
  spec.vc_classes = {{0, 1}};
  Network net(std::move(spec));
  for (int i = 0; i < 20; ++i) {
    net.nic().enqueue_packet(0, 1, 1, 4, 128, 0, 0, true);
  }
  ASSERT_TRUE(drain(net, 5000));
  EXPECT_EQ(net.nic().records().size(), 20u);
}

TEST(RouterEdge, DeepPacketsLargerThanBuffers) {
  // 12-flit packets through 4-deep buffers: pure wormhole spill-over.
  NetworkSpec spec = two_router_spec(4, 4);
  Network net(std::move(spec));
  for (int i = 0; i < 8; ++i) {
    net.nic().enqueue_packet(0, 1, 1, 12, 128, 0, 0, true);
  }
  ASSERT_TRUE(drain(net, 5000));
  ASSERT_EQ(net.nic().records().size(), 8u);
  for (const auto& rec : net.nic().records()) {
    EXPECT_EQ(rec.size_flits, 12);
  }
}

TEST(RouterEdge, DumpStateListsActivePackets) {
  Network net(two_router_spec());
  for (int i = 0; i < 4; ++i) {
    net.nic().enqueue_packet(0, 1, 1, 8, 128, 0, 0, true);
  }
  net.engine().run(6);  // mid-flight
  std::ostringstream os;
  net.router(0).dump_state(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("router 0"), std::string::npos);
  EXPECT_NE(dump.find("pkt="), std::string::npos);
  ASSERT_TRUE(drain(net, 2000));
}

TEST(RouterEdge, CountersMonotone) {
  Network net(two_router_spec());
  net.nic().enqueue_packet(0, 1, 1, 4, 128, 0, 0, true);
  net.engine().run(5);
  const auto mid = net.router(0).counters();
  ASSERT_TRUE(drain(net, 1000));
  const auto end = net.router(0).counters();
  EXPECT_GE(end.buffer_writes, mid.buffer_writes);
  EXPECT_GE(end.crossbar_flits, mid.crossbar_flits);
  EXPECT_EQ(end.buffer_writes, end.buffer_reads);  // drained: in == out
}

TEST(RouterEdge, RadixReportsMaxOfInOut) {
  std::vector<VcClassRange> classes = {{0, 4}};
  Router::Params params;
  params.num_inputs = 3;
  params.num_outputs = 17;
  struct DummyOracle final : RoutingOracle {
    RouteEntry route(RouterId, const Flit&) const override { return {}; }
  } oracle;
  Router router(params, &classes, &oracle);
  EXPECT_EQ(router.radix(), 17);
  EXPECT_EQ(router.num_inputs(), 3);
  EXPECT_EQ(router.num_outputs(), 17);
}

/// Output endpoint that counts alloc_vc calls per class. It keeps the
/// OutputEndpoint contract the router's refused mask relies on: a class
/// lane, once granted, frees only when its tail passes through accept().
/// Its gate admits every flit unless a test closes a lane.
struct CountingOutput final : OutputEndpoint {
  std::vector<int> free_lanes;     ///< per class
  std::vector<int> calls;          ///< alloc_vc calls per class
  std::vector<PacketId> accepted;  ///< packet of each accepted flit
  VcId alloc_vc(int vc_class, Cycle /*now*/) override {
    const auto c = static_cast<std::size_t>(vc_class);
    ++calls[c];
    if (free_lanes[c] == 0) return kInvalidId;
    --free_lanes[c];
    return vc_class;  // the class rides in flit.vc, as on a medium writer
  }
  void accept(const Flit& flit, Cycle /*now*/) override {
    accepted.push_back(flit.packet);
    if (flit.tail) ++free_lanes[static_cast<std::size_t>(flit.vc)];
  }
  /// Publishes lane `lane` as refusing every flit.
  void close(VcId lane) { gate_.closed |= std::uint64_t{1} << lane; }
  /// Publishes lane `lane` as admitting flits again.
  void open(VcId lane) { gate_.closed &= ~(std::uint64_t{1} << lane); }
};

/// Input endpoint replaying (arrival cycle, flit) pairs in order; it
/// publishes the front's cycle as arrival_at.
class ScriptedInput final : public InputEndpoint {
 public:
  explicit ScriptedInput(std::deque<std::pair<Cycle, Flit>> script)
      : script_(std::move(script)) {
    publish();
  }
  const Flit* poll(Cycle now) override {
    if (script_.empty() || script_.front().first > now) return nullptr;
    return &script_.front().second;
  }
  void pop(Cycle /*now*/) override {
    script_.pop_front();
    publish();
  }
  void push_credit(VcId /*vc*/, Cycle /*now*/) override {}

 private:
  void publish() {
    arrival_at_ = script_.empty() ? kNeverCycle : script_.front().first;
  }
  std::deque<std::pair<Cycle, Flit>> script_;
};

/// Routes every head to output 0 in its own class.
struct ClassOracle final : RoutingOracle {
  RouteEntry route(RouterId, const Flit& head) const override {
    return {0, head.vc_class};
  }
};

/// One input and one output of four 4-deep VCs.
Router::Params one_by_one() {
  Router::Params params;
  params.num_inputs = 1;
  params.num_outputs = 1;
  params.num_vcs = 4;
  params.buffer_depth = 4;
  return params;
}

Flit script_flit(PacketId packet, VcId vc, int cls, bool head, bool tail) {
  Flit f;
  f.packet = packet;
  f.vc = vc;
  f.vc_class = static_cast<std::int8_t>(cls);
  f.head = head;
  f.tail = tail;
  return f;
}

TEST(RouterEdge, VcaSkipsARefusedClassUntilATailLeaves) {
  // One input, one output with one lane per class. Packet 1 (class 0) takes
  // the class-0 lane at cycle 2 and holds it until its tail arrives at
  // cycle 10. Packet 2 (class 0) is refused at cycle 3 and packet 3
  // (class 1, no lane free) at cycle 7; both wait in VCA until then.
  std::vector<VcClassRange> classes = {{0, 2}, {2, 2}};
  ClassOracle oracle;
  Router router(one_by_one(), &classes, &oracle);
  const auto flit = script_flit;
  ScriptedInput in({{0, flit(1, 0, 0, true, false)},
                    {1, flit(2, 1, 0, true, true)},
                    {5, flit(3, 2, 1, true, true)},
                    {10, flit(1, 0, 0, false, true)}});
  CountingOutput out;
  out.free_lanes = {1, 0};
  out.calls = {0, 0};
  router.connect_input(0, &in);
  router.connect_output(0, &out);

  for (Cycle now = 0; now < 10; ++now) router.eval(now);
  EXPECT_EQ(out.calls[0], 2);  // packet 1's grant, packet 2's one refusal
  EXPECT_EQ(out.calls[1], 1);  // another class on the same output is asked
  EXPECT_EQ(out.accepted, std::vector<PacketId>{1});
  EXPECT_EQ(router.counters().vc_allocations, 1);

  router.eval(10);  // packet 1's tail leaves and frees the class-0 lane
  EXPECT_EQ(out.accepted, (std::vector<PacketId>{1, 1}));
  EXPECT_EQ(out.calls[0], 3);  // packet 2 is asked and granted this eval
  EXPECT_EQ(router.counters().vc_allocations, 2);
  EXPECT_EQ(out.calls[1], 2);  // a tail clears every class of the output

  router.eval(11);
  EXPECT_EQ(out.accepted, (std::vector<PacketId>{1, 1, 2}));
}

TEST(RouterEdge, VcaParkedVcsAreAskedInTheEvalATailLeaves) {
  // Packet 1 (class 0) holds the one class-0 lane from cycle 2 until its
  // tail leaves at cycle 10. Packet 2 is refused at cycle 3 and parks.
  // Packet 3, routed at cycle 6 after the refusal, parks without being
  // asked. The tail's eval returns both: packet 2 takes the lane, packet 3
  // is refused again, and packet 2's tail returns packet 3 at cycle 11.
  std::vector<VcClassRange> classes = {{0, 2}, {2, 2}};
  ClassOracle oracle;
  Router router(one_by_one(), &classes, &oracle);
  const auto flit = script_flit;
  ScriptedInput in({{0, flit(1, 0, 0, true, false)},
                    {1, flit(2, 1, 0, true, true)},
                    {5, flit(3, 2, 0, true, true)},
                    {10, flit(1, 0, 0, false, true)}});
  CountingOutput out;
  out.free_lanes = {1, 1};
  out.calls = {0, 0};
  router.connect_input(0, &in);
  router.connect_output(0, &out);

  for (Cycle now = 0; now < 10; ++now) router.eval(now);
  EXPECT_EQ(out.calls[0], 2);  // packet 1's grant, packet 2's refusal

  router.eval(10);
  EXPECT_EQ(out.accepted, (std::vector<PacketId>{1, 1}));
  EXPECT_EQ(out.calls[0], 4);  // both asked in the tail's eval
  EXPECT_EQ(router.counters().vc_allocations, 2);

  router.eval(11);  // packet 2's tail leaves; packet 3 is asked and granted
  EXPECT_EQ(out.accepted, (std::vector<PacketId>{1, 1, 2}));
  EXPECT_EQ(out.calls[0], 5);
  EXPECT_EQ(router.counters().vc_allocations, 3);

  router.eval(12);
  EXPECT_EQ(out.accepted, (std::vector<PacketId>{1, 1, 2, 3}));
  EXPECT_EQ(router.occupancy(), 0);
}

TEST(RouterEdge, VcParkedOnAClosedLaneIsNominatedOnceTheLaneReopens) {
  // Packet 1 (2 flits, class 0) gets lane 0 at cycle 2, but lane 0 is
  // closed, so SA parks it at cycle 3; its tail arrives into the parked VC
  // at cycle 5. Lane 1 stays open for packet 2 (class 1), which launches
  // past the parked VC at cycle 4. The eval right after the lane reopens
  // nominates packet 1's head, and the next its tail.
  std::vector<VcClassRange> classes = {{0, 2}, {2, 2}};
  ClassOracle oracle;
  Router router(one_by_one(), &classes, &oracle);
  const auto flit = script_flit;
  ScriptedInput in({{0, flit(1, 0, 0, true, false)},
                    {1, flit(2, 1, 1, true, true)},
                    {5, flit(1, 0, 0, false, true)}});
  CountingOutput out;
  out.free_lanes = {1, 1};
  out.calls = {0, 0};
  out.close(0);
  router.connect_input(0, &in);
  router.connect_output(0, &out);

  for (Cycle now = 0; now < 12; ++now) router.eval(now);
  EXPECT_EQ(out.accepted, std::vector<PacketId>{2});
  EXPECT_EQ(router.occupancy(), 2);

  out.open(0);
  router.eval(12);
  EXPECT_EQ(out.accepted, (std::vector<PacketId>{2, 1}));
  router.eval(13);
  EXPECT_EQ(out.accepted, (std::vector<PacketId>{2, 1, 1}));
  EXPECT_EQ(router.occupancy(), 0);
}

// ---------------------------------------------------------------------------
// Early dormancy (DESIGN.md §5e): a router sleeps as soon as no buffered
// flit can advance, and only an opening gate or a slot end wakes it. Each
// case runs one router on an activity engine.

TEST(RouterEdge, StallsRightAfterALaunchWhenEveryOtherGateIsClosed) {
  // Packet 1 (class 0) launches at cycle 3. Packet 2 (class 1) gets lane 1
  // in the same eval, and lane 1 refuses every flit, so the eval that
  // launched a flit already leaves the router stalled.
  std::vector<VcClassRange> classes = {{0, 2}, {2, 2}};
  ClassOracle oracle;
  Router router(one_by_one(), &classes, &oracle);
  ScriptedInput in({{0, script_flit(1, 0, 0, true, true)},
                    {1, script_flit(2, 1, 1, true, true)}});
  CountingOutput out;
  out.free_lanes = {1, 1};
  out.calls = {0, 0};
  out.close(1);
  router.connect_input(0, &in);
  router.connect_output(0, &out);
  Engine engine;
  engine.add(&router);
  for (int i = 0; i < 3; ++i) {
    engine.step();
    EXPECT_FALSE(router.stalled()) << "cycle " << i;
  }
  engine.step();  // cycle 3
  EXPECT_EQ(out.accepted, std::vector<PacketId>{1});
  EXPECT_TRUE(router.stalled());
  const std::int64_t evals = engine.stats().evals;
  engine.run(20);
  EXPECT_EQ(engine.stats().evals, evals);  // nothing opens lane 1
  EXPECT_EQ(router.occupancy(), 1);
}

TEST(RouterEdge, ChannelWakesAStalledRouterOnlyWhenACreditOpensItsGate) {
  // Two 2-deep downstream VCs. Packet 1 (3 flits) holds VC 0 and packet 2
  // (1 flit) VC 1. After cycle 5 packet 1's tail waits on VC 0, which has
  // no credit. Packet 2's credit lands at cycle 7 on VC 1, whose count is
  // above zero: no gate opens, so no wake. Packet 1's first credit lands at
  // cycle 11 into VC 0's empty count: the router wakes at 12 and launches.
  std::vector<VcClassRange> classes = {{0, 2}};
  ClassOracle oracle;
  Router router(one_by_one(), &classes, &oracle);
  ScriptedInput in({{0, script_flit(1, 0, 0, true, false)},
                    {1, script_flit(2, 1, 0, true, true)},
                    {2, script_flit(1, 0, 0, false, false)},
                    {3, script_flit(1, 0, 0, false, true)}});
  Channel channel(MediumType::kElectrical, /*latency=*/1,
                  /*cycles_per_flit=*/1, /*num_vcs=*/2, /*buffer_depth=*/2,
                  Length{}, &classes, "out");
  channel.set_source(&router);
  router.connect_input(0, &in);
  router.connect_output(0, channel.out());
  Engine engine;
  engine.add(&router);
  engine.add(&channel);
  engine.run(6);
  ASSERT_TRUE(router.stalled());
  ASSERT_EQ(channel.counters().flits, 3);
  ASSERT_EQ(channel.credits(0), 0);
  const std::int64_t wakes = engine.stats().wakes;

  channel.in()->push_credit(1, engine.now());  // lands at cycle 7
  engine.run(4);
  EXPECT_EQ(channel.credits(1), 2);
  EXPECT_EQ(engine.stats().wakes, wakes);
  EXPECT_TRUE(router.stalled());
  EXPECT_EQ(channel.counters().flits, 3);

  channel.in()->push_credit(0, engine.now());  // cycle 10, lands at 11
  engine.step();
  engine.step();
  EXPECT_EQ(engine.stats().wakes, wakes + 1);
  EXPECT_EQ(channel.counters().flits, 3);
  engine.step();  // cycle 12
  EXPECT_EQ(channel.counters().flits, 4);
  EXPECT_EQ(router.occupancy(), 0);
}

TEST(RouterEdge, SlotBusyOutputPostsOneSelfWakePerSlot) {
  // A 4-flit packet over a link of four cycles per flit. Between launches
  // the router sleeps with one wake at the slot end; an unrelated wake in
  // the middle of a slot posts no second one.
  std::vector<VcClassRange> classes = {{0, 1}};
  ClassOracle oracle;
  Router router(one_by_one(), &classes, &oracle);
  ScriptedInput in({{0, script_flit(1, 0, 0, true, false)},
                    {1, script_flit(1, 0, 0, false, false)},
                    {2, script_flit(1, 0, 0, false, false)},
                    {3, script_flit(1, 0, 0, false, true)}});
  Channel channel(MediumType::kElectrical, /*latency=*/1,
                  /*cycles_per_flit=*/4, /*num_vcs=*/1, /*buffer_depth=*/8,
                  Length{}, &classes, "slow");
  channel.set_source(&router);
  router.connect_input(0, &in);
  router.connect_output(0, channel.out());
  Engine engine;
  engine.add(&router);
  engine.add(&channel);
  std::vector<Cycle> launches;
  for (Cycle now = 0; now < 20; ++now) {
    if (now == 5) router.request_wake(now);
    engine.step();
    while (channel.counters().flits >
           static_cast<std::int64_t>(launches.size())) {
      launches.push_back(now);
    }
  }
  EXPECT_EQ(launches, (std::vector<Cycle>{3, 7, 11, 15}));
  EXPECT_EQ(engine.stats().wakes, 4);  // slots ending at 7, 11, 15; cycle 5
}

TEST(WriterGate, LaneClosesAfterATailUntilItsStagingEmpties) {
  // One writer lane of four staging slots. A body flit needs a free slot; a
  // tail closes the lane to the next head until the medium has popped the
  // whole packet.
  std::vector<VcClassRange> classes = {{0, 2}};
  SharedMedium::Params params;
  params.num_vcs = 2;
  params.buffer_depth = 8;
  params.max_packet_flits = 4;
  params.name = "gate";
  SharedMedium medium(params, &classes);
  OutputEndpoint* writer = medium.writer(0);
  const VcId lane = writer->alloc_vc(0, 0);
  const auto send = [&](int seq, bool tail, Cycle now) {
    ASSERT_TRUE(writer->gate().admits(lane, now)) << "flit " << seq;
    Flit flit = script_flit(1, lane, 0, seq == 0, tail);
    flit.size_bits = 128;
    writer->accept(flit, now);
  };
  for (int seq = 0; seq < 4; ++seq) send(seq, false, 0);
  EXPECT_FALSE(writer->gate().admits(lane, 0));  // staging full
  medium.commit(0);
  medium.eval(1);  // takes the token; nothing popped yet
  medium.commit(1);
  EXPECT_FALSE(writer->gate().admits(lane, 2));
  medium.eval(2);  // pops the head
  medium.commit(2);
  send(4, /*tail=*/true, 3);
  EXPECT_FALSE(writer->gate().admits(lane, 3));  // the next flit is a head
  medium.commit(3);
  for (Cycle now = 4; now < 8; ++now) {
    medium.eval(now);  // pops flits 1..4
    medium.commit(now);
    EXPECT_EQ(writer->gate().admits(lane, now + 1), now == 7) << now;
  }
  EXPECT_EQ(medium.counters().flits, 5);
}

TEST(ChannelEdge, ConstructionValidation) {
  std::vector<VcClassRange> classes = {{0, 4}};
  EXPECT_THROW(Channel(MediumType::kElectrical, 0, 1, 4, 8, Length{}, &classes, "x"),
               std::invalid_argument);
  EXPECT_THROW(Channel(MediumType::kElectrical, 1, 0, 4, 8, Length{}, &classes, "x"),
               std::invalid_argument);
  EXPECT_THROW(Channel(MediumType::kElectrical, 1, 1, 0, 8, Length{}, &classes, "x"),
               std::invalid_argument);
  EXPECT_THROW(Channel(MediumType::kElectrical, 1, 1, 4, 8, Length{}, nullptr, "x"),
               std::invalid_argument);
}

TEST(ChannelEdge, VcAllocationRoundRobinsWithinClass) {
  std::vector<VcClassRange> classes = {{0, 4}};
  Channel channel(MediumType::kElectrical, 1, 1, 4, 8, Length{}, &classes, "rr");
  // Allocate twice: distinct VCs while both packets are open.
  const VcId a = channel.out()->alloc_vc(0, 0);
  const VcId b = channel.out()->alloc_vc(0, 0);
  EXPECT_NE(a, b);
  EXPECT_TRUE(channel.vc_busy(a));
  EXPECT_TRUE(channel.vc_busy(b));
  // Exhausting the class returns kInvalidId.
  channel.out()->alloc_vc(0, 0);
  channel.out()->alloc_vc(0, 0);
  EXPECT_EQ(channel.out()->alloc_vc(0, 0), kInvalidId);
}

TEST(ChannelEdge, SerializationGatesAcceptance) {
  std::vector<VcClassRange> classes = {{0, 2}};
  Channel channel(MediumType::kElectrical, 1, 4, 2, 8, Length{}, &classes, "slow");
  Flit flit;
  flit.vc = channel.out()->alloc_vc(0, 0);
  flit.head = true;
  ASSERT_TRUE(channel.out()->gate().admits(flit.vc, 0));
  channel.out()->accept(flit, 0);
  EXPECT_FALSE(channel.out()->gate().admits(flit.vc, 1));  // busy until 4
  EXPECT_FALSE(channel.out()->gate().admits(flit.vc, 3));
  EXPECT_TRUE(channel.out()->gate().admits(flit.vc, 4));
}

TEST(ChannelEdge, FlitArrivesAfterLatency) {
  std::vector<VcClassRange> classes = {{0, 2}};
  Channel channel(MediumType::kElectrical, 3, 1, 2, 8, Length{}, &classes, "lat");
  Flit flit;
  flit.vc = channel.out()->alloc_vc(0, 0);
  flit.head = true;
  flit.tail = true;
  channel.out()->accept(flit, 10);
  channel.commit(10);
  EXPECT_EQ(channel.in()->poll(12), nullptr);
  const Flit* arrived = channel.in()->poll(13);
  ASSERT_NE(arrived, nullptr);
  EXPECT_EQ(arrived->vc, flit.vc);
  channel.in()->pop(13);
  EXPECT_EQ(channel.in()->poll(14), nullptr);
}

TEST(ChannelEdge, CreditReturnsAfterOneCycle) {
  std::vector<VcClassRange> classes = {{0, 2}};
  Channel channel(MediumType::kElectrical, 1, 1, 2, 3, Length{}, &classes, "cr");
  EXPECT_EQ(channel.credits(0), 3);
  Flit flit;
  flit.vc = channel.out()->alloc_vc(0, 0);
  flit.head = true;
  flit.tail = true;
  channel.out()->accept(flit, 0);
  EXPECT_EQ(channel.credits(flit.vc), 2);
  channel.commit(0);
  channel.in()->pop(1);
  channel.in()->push_credit(flit.vc, 1);
  channel.commit(1);
  channel.eval(2);  // credit arrival at now=2
  EXPECT_EQ(channel.credits(flit.vc), 3);
}

// ---------------------------------------------------------------------------
// Sender-side wakes (DESIGN.md §5e). A router whose eval changes nothing
// sleeps while it still holds flits; the channel or medium that can unblock
// it wakes it the next cycle. Each case drives a small network cycle by cycle
// under both kernels and requires the same flit departure cycles, while
// the activity kernel evaluates strictly less over the stalled window. A
// missing wake leaves the stalled router asleep, so its departures (and the
// run's ejections) fall behind lockstep's and the comparison fails.

/// Ring R0 -> R1 -> ... -> R0 with one node per router; `links` gives the
/// (latency, cycles_per_flit) of each hop Ri -> Ri+1, and the closing hop
/// back to R0 is a plain one. The tests only send rightwards, so the ring
/// never wraps and needs no dateline class.
NetworkSpec chain_spec(const std::vector<std::pair<int, int>>& links,
                       int num_vcs, int buffer_depth) {
  const int n = static_cast<int>(links.size()) + 1;
  NetworkSpec spec = testing::ring_spec(n, num_vcs, buffer_depth);
  spec.name = "chain";
  spec.vc_classes = {{0, num_vcs}};
  for (int i = 0; i + 1 < n; ++i) {
    LinkSpec& link = spec.links[static_cast<std::size_t>(i)];
    link.latency = links[static_cast<std::size_t>(i)].first;
    link.cycles_per_flit = links[static_cast<std::size_t>(i)].second;
  }
  for (auto& row : spec.route_table) {
    for (RouteEntry& entry : row) entry.vc_class = 0;
  }
  return spec;
}

/// R0 writes into a slow token medium read by R1 (one writer, one reader);
/// a plain link closes the loop back to R0.
NetworkSpec medium_spec(int cycles_per_flit) {
  NetworkSpec spec = testing::two_router_spec(/*num_vcs=*/2);
  spec.name = "medium-pair";
  spec.vc_classes = {{0, 2}};
  spec.links.erase(spec.links.begin());  // R0 -> R1 goes over the medium
  MediumSpec medium;
  medium.writers = {{0, 0}};
  medium.readers = {{1, 0}};
  medium.cycles_per_flit = cycles_per_flit;
  medium.max_packet_flits = 8;
  medium.name = "wg";
  spec.media.push_back(medium);
  return spec;
}

struct WakeRun {
  /// (cycle, link/medium index) of every flit launch, in cycle order.
  std::vector<std::pair<Cycle, int>> departures;
  std::vector<Cycle> ejections;  ///< per packet, in ejection order
  std::int64_t window_evals = 0;  ///< evals over [window_begin, window_end)
  bool stalled_in_window = false;  ///< some router reported stalled()
};

/// Steps `spec` for `cycles` under `mode`. `enqueue` runs before the first
/// cycle, `poke(network, now)` before every cycle (between steps).
WakeRun run_wake_case(NetworkSpec spec, KernelMode mode, Cycle cycles,
                      Cycle window_begin, Cycle window_end,
                      const std::function<void(Network&)>& enqueue,
                      const std::function<void(Network&, Cycle)>& poke = {}) {
  const int routers = spec.num_routers();
  Network network(std::move(spec));
  network.engine().set_mode(mode);
  enqueue(network);
  const auto launched = [&network](std::size_t i) {
    return i < network.num_network_channels()
               ? network.network_channel(i).counters().flits
               : network.medium(i - network.num_network_channels())
                     .counters()
                     .flits;
  };
  const std::size_t pipes =
      network.num_network_channels() + network.num_media();
  std::vector<std::int64_t> seen(pipes, 0);
  WakeRun run;
  std::int64_t evals_at_begin = 0;
  for (Cycle now = 0; now < cycles; ++now) {
    if (now == window_begin) evals_at_begin = network.engine().stats().evals;
    if (now == window_end) {
      run.window_evals = network.engine().stats().evals - evals_at_begin;
    }
    if (poke) poke(network, now);
    network.engine().step();
    for (std::size_t i = 0; i < pipes; ++i) {
      for (; seen[i] < launched(i); ++seen[i]) {
        run.departures.emplace_back(now, static_cast<int>(i));
      }
    }
    if (now >= window_begin && now < window_end) {
      for (RouterId r = 0; r < routers; ++r) {
        run.stalled_in_window |= network.router(r).stalled();
      }
    }
  }
  for (const PacketRecord& record : network.nic().records()) {
    run.ejections.push_back(record.ejected);
  }
  EXPECT_TRUE(network.drained()) << to_string(mode);
  return run;
}

/// Runs the case under both kernels: identical departures and
/// ejections, and the activity kernel sleeps through the stalled window —
/// strictly fewer evals than lockstep, and fewer than `busy_bound`, which
/// a router evaluated on every cycle of the window would exceed.
void expect_wake_parity(const NetworkSpec& spec, Cycle cycles,
                        Cycle window_begin, Cycle window_end,
                        std::int64_t busy_bound,
                        const std::function<void(Network&)>& enqueue,
                        const std::function<void(Network&, Cycle)>& poke = {}) {
  const WakeRun lockstep = run_wake_case(spec, KernelMode::kLockstep, cycles,
                                         window_begin, window_end, enqueue,
                                         poke);
  const WakeRun activity = run_wake_case(spec, KernelMode::kActivity, cycles,
                                         window_begin, window_end, enqueue,
                                         poke);
  ASSERT_FALSE(lockstep.departures.empty());
  EXPECT_EQ(lockstep.departures, activity.departures);
  EXPECT_EQ(lockstep.ejections, activity.ejections);
  EXPECT_TRUE(activity.stalled_in_window);
  EXPECT_LT(activity.window_evals, lockstep.window_evals);
  EXPECT_LT(activity.window_evals, busy_bound);
}

void enqueue_packets(Network& network, NodeId src, NodeId dst, int count,
                     int flits) {
  for (int i = 0; i < count; ++i) {
    network.nic().enqueue_packet(src, dst, network.router_of(dst), flits, 128,
                                 network.injection_vc_class(src, dst), 0,
                                 true);
  }
}

TEST(SenderWake, RouterBlockedOnZeroCreditsWakesOnCredit) {
  // R1 drains one flit per 30 cycles over its slow hop, so R0 holds flits
  // with zero credits toward R1 for ~30 cycles at a time. Only the credit
  // absorbed by hop0 wakes R0; R1 in turn sleeps on its serialization slot.
  // The 8-flit packet fits in R0 + R1 buffers, so the NIC goes idle early
  // and over the window nothing needs evaluating on most cycles.
  const NetworkSpec spec = chain_spec({{1, 1}, {1, 30}}, /*num_vcs=*/1,
                                      /*buffer_depth=*/4);
  const Cycle window_begin = 40;
  const Cycle window_end = 200;
  expect_wake_parity(spec, 320, window_begin, window_end,
                     /*busy_bound=*/window_end - window_begin,
                     [](Network& network) { enqueue_packets(network, 0, 2, 1, 8); });
}

TEST(SenderWake, HeadWaitsForMediumWriterLaneToDrain) {
  // Two 8-flit packets fill the writer's class lane; the medium sends one
  // flit per 20 cycles, and the second head may enter only once the lane is
  // empty (~160 cycles). R0 sleeps between the medium's staging pops. The
  // medium itself is busy throughout, hence one window of evals in the
  // bound: a router evaluated every cycle as well would exceed it.
  const NetworkSpec spec = medium_spec(/*cycles_per_flit=*/20);
  const Cycle window_begin = 20;
  const Cycle window_end = 150;
  expect_wake_parity(spec, 400, window_begin, window_end,
                     /*busy_bound=*/2 * (window_end - window_begin),
                     [](Network& network) { enqueue_packets(network, 0, 1, 2, 8); });
}

TEST(SenderWake, SerializationSlotAndOutageWakeTheSender) {
  // A cycles_per_flit = 3 hop: R0 sleeps between its flits and is woken by
  // the slot refusal's wake. Mid-packet the hop goes down for 150 cycles;
  // the 16-flit packet sits in R0's input buffer by then (the NIC is idle),
  // so R0 sleeps through the outage and the window is (nearly) eval-free.
  const NetworkSpec spec = chain_spec({{1, 3}}, /*num_vcs=*/1,
                                      /*buffer_depth=*/16);
  const Cycle outage_at = 20;
  const Cycle outage_until = 170;
  expect_wake_parity(
      spec, 260, outage_at + 5, outage_until,
      /*busy_bound=*/outage_until - outage_at - 5,
      [](Network& network) { enqueue_packets(network, 0, 1, 1, 16); },
      [&](Network& network, Cycle now) {
        if (now == outage_at) {
          network.network_channel_mut(0).set_outage(outage_until, now);
        }
      });
}

// ---------------------------------------------------------------------------
// Router pins: digests of experiment_result_json for short runs whose VC
// counts and arbitration shapes the benchmark goldens do not cover. The
// first six were recorded on the router that scanned every input VC in each
// stage, before the per-port VC-state bitmasks replaced those scans, so they
// hold the walk orders of SA stage 1, VCA and RC to the scans' round-robin
// orders. The last two, saturated points were recorded on the router that
// asked every output again each cycle, before the per-output refused mask,
// so they hold the skipped calls to the grants that asking gave. The two
// points past the knee that do not drain were recorded on the router that
// asked each output endpoint whether it would accept a flit, before outputs
// published an acceptance gate, so they hold the gate to the answers those
// calls gave. Each point must give the same digest under the lockstep and
// the activity kernel.
// The obs counters are part of the JSON, so the compiled-out registry has
// its own digests.

void expect_pinned(const char* text, const char* obs_on_digest,
                   const char* obs_off_digest, bool drains = true) {
  for (const KernelMode mode : {KernelMode::kLockstep, KernelMode::kActivity}) {
    ExperimentConfig config =
        parse_experiment_config(Config::from_string(text));
    config.kernel = mode;
    const ExperimentResult result = run_experiment(config);
    EXPECT_EQ(result.run.drained, drains) << to_string(mode);
    EXPECT_EQ(sha256_hex(experiment_result_json(result)),
              OWNSIM_OBS_ENABLED ? obs_on_digest : obs_off_digest)
        << text << " kernel=" << to_string(mode);
  }
}

TEST(RouterPins, CmeshSixtyFourVcsDepthOne) {
  // Every VC holds one flit, so a saturated mesh rotates VC allocation
  // through all 64 VCs: VC 63 is the top mask bit, and an SA grant on it
  // wraps rr_vc to 0.
  expect_pinned(
      "topology=cmesh cores=64 vcs=64 buffer_depth=1 rate=0.05 "
      "warmup=200 measure=800 drain=5000",
      "08385f90d5044241380286c60a75848d4a13a73e9a37db8c4ba1556cc43ceb47",
      "7d7c4d925c09615b3b9deb31dd306c68084a7e17f31b7812fd208ee1557108ff");
}

TEST(RouterPins, CmeshSevenVcs) {
  // A 4x4 mesh whose routers have 6, 7 or 8 inputs of 7 VCs: no VCA slot
  // total (42, 49, 56) is a power of two, so the closed-form vca_rr_
  // catch-up after a sleep wraps at a non-trivial modulus.
  expect_pinned(
      "topology=cmesh cores=64 vcs=7 rate=0.03 warmup=200 "
      "measure=800 drain=5000",
      "747085d4555c515307be219320ee13f97388292791fec4df9a606b1a39c332a5",
      "1776fa423e5e80ed930773acad0f12d9883386c4eb937fd91cf8b7781052d995");
}

TEST(RouterPins, Own256FiveVcs) {
  expect_pinned(
      "topology=own cores=256 vcs=5 rate=0.004 warmup=200 "
      "measure=800 drain=8000",
      "7c1a2bb4ea27305e79a2fa3e44aa1446d9edb316b58b8c29187cb2c0ee62736c",
      "9cd897d29f0eb0f498890587881bc961999c21f4b4db73f4d93ae7c7258d9967");
}

TEST(RouterPins, OptXb256) {
  expect_pinned(
      "topology=optxb cores=256 rate=0.006 warmup=200 "
      "measure=800 drain=5000",
      "cca697a0420b5ded7b25c70aa52a968d82a79ffbc6c5707fd1d9b628263e1b7a",
      "05bf7a7ebb5ef47bb144288d0e4c086ae3cb901038c020c36575c6eb3347b157");
}

TEST(RouterPins, WirelessCmesh256O1Turn) {
  // Wireless CMESH builds one VC class whatever o1turn says; the key is
  // pinned here as part of the canonical config all the same.
  expect_pinned(
      "topology=wcmesh cores=256 o1turn=1 rate=0.006 warmup=200 "
      "measure=800 drain=5000",
      "15403ffa0196801f8574c331d5ce8b821b95b52e58aade3d7e3ee29b6fb4f16a",
      "3a055be04109180e557cdc48bafdd7f3ed5ef309d6666955e8421b91717fb83d");
}

TEST(RouterPins, CmeshO1TurnTornado) {
  // O1TURN on the plain mesh: two VC classes and the YX alternate table, so
  // RC hands out both classes and VCA allocates within each.
  expect_pinned(
      "topology=cmesh cores=64 o1turn=1 pattern=tornado "
      "rate=0.015 warmup=200 measure=800 drain=5000",
      "7954bfdbe23d5b01a602ea287dc7846d644dcc26a54825cee89df5f357279fa3",
      "2ad5b364c091c0e6a0f27cc9ad54db6b0727dac7597e745bea55031d689e1049");
}

TEST(RouterPins, CmeshHotspotTwoVcs) {
  // Past saturation with two VCs in the mesh's one class: a fifth of the
  // traffic heads for node 0, so VCs queued in VCA at the routers on the
  // way wait on the same (output, class) for many cycles while both
  // downstream VCs stay busy.
  expect_pinned(
      "topology=cmesh cores=64 vcs=2 pattern=hotspot rate=0.013 "
      "warmup=200 measure=800 drain=5000",
      "b10b061aa8e4e7212fffc3aaba25e28116bb60a320e83d98a4953d0219b23e19",
      "7502b515dbd357563070b34693624ad58938080c415ab39fee75461f1f2ed44b");
}

TEST(RouterPins, Own256PastSaturation) {
  // Offered 0.012 against an accepted ~0.009: heads queue in VCA on the
  // photonic and wireless writer lanes, which refuse a class while a packet
  // of it is still open.
  expect_pinned(
      "topology=own cores=256 rate=0.012 warmup=200 measure=800 drain=8000",
      "94857f258db25bbf6ded8dc9cebaad8b3797ee1beb350c4ac85c0f38998c5abc",
      "7cc674781001988ff28263bb57d609d127edf30af255ecdf282f9f02eba8af2f");
}

TEST(RouterPins, WirelessCmesh256PastTheKnee) {
  // Offered 0.012 against an accepted ~0.008: routers wait on zero credits
  // and on the multi-cycle serialization slots of the 4-cycle crossbar
  // links and the wireless grid links. The point does not drain within the
  // phases.
  expect_pinned(
      "topology=wcmesh cores=256 rate=0.012 warmup=200 measure=800 "
      "drain=5000",
      "cbe1ef594229b563a22ae0199c66a68d2d1a14215377ab272621dd112273d83e",
      "72b5faaa45ab417c5962b4cc40f24ba47785242ecb02d4e07e3f21d9e707ebb4",
      /*drains=*/false);
}

TEST(RouterPins, OptXb1024PastTheKnee) {
  // OptXB-1024 waveguides have 255 writers each, more than one 64-bit word
  // of a per-writer mask; at 0.03 most writers hold staged packets.
  expect_pinned(
      "topology=optxb cores=1024 rate=0.03 warmup=200 measure=800 "
      "drain=5000",
      "f98b27c545e94453b10fb9f51d13bf954b10401c4fa95dceb2409f75eb27703d",
      "7e0dc2a8e3045302a13256fb032eb7c5f3008c245fdd02f28f0b723fb6870aba",
      /*drains=*/false);
}

}  // namespace
}  // namespace ownsim
