// Direct unit tests for SharedMedium's per-class writer lanes (the deadlock-
// critical structure), arbitration variants, parameter validation, and the
// medium's sleep states under the activity kernel (DESIGN.md §5e).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "network/shared_medium.hpp"
#include "obs/counters.hpp"
#include "sim/engine.hpp"

namespace ownsim {
namespace {

SharedMedium::Params base_params() {
  SharedMedium::Params params;
  params.medium = MediumType::kPhotonic;
  params.num_writers = 3;
  params.num_readers = 1;
  params.num_vcs = 4;
  params.buffer_depth = 8;
  params.max_packet_flits = 8;
  params.name = "unit";
  return params;
}

Flit make_flit(PacketId packet, bool head, bool tail, VcId lane) {
  Flit flit;
  flit.packet = packet;
  flit.dst = 0;
  flit.dst_router = 0;
  flit.head = head;
  flit.tail = tail;
  flit.vc = lane;
  flit.size_bits = 128;
  return flit;
}

TEST(MediumLanes, ValidatesParams) {
  std::vector<VcClassRange> classes = {{0, 4}};
  auto params = base_params();
  params.num_writers = 0;
  EXPECT_THROW(SharedMedium(params, &classes), std::invalid_argument);
  params = base_params();
  params.latency = 0;
  EXPECT_THROW(SharedMedium(params, &classes), std::invalid_argument);
  params = base_params();
  params.num_readers = 2;  // multiple readers need select_reader
  EXPECT_THROW(SharedMedium(params, &classes), std::invalid_argument);
  EXPECT_THROW(SharedMedium(base_params(), nullptr), std::invalid_argument);
}

TEST(MediumLanes, PerClassLanesAreIndependent) {
  // A packet open (and stuck) on class 0 must not block class-1 admission on
  // the same writer port — the property that broke OWN before the fix.
  std::vector<VcClassRange> classes = {{0, 2}, {2, 2}};
  SharedMedium medium(base_params(), &classes);
  OutputEndpoint* writer = medium.writer(0);

  const VcId lane0 = writer->alloc_vc(0, 0);
  EXPECT_EQ(lane0, 0);
  // Class 0 now has an open packet; a second class-0 packet is refused...
  EXPECT_EQ(writer->alloc_vc(0, 0), kInvalidId);
  // ...but class 1 is granted independently.
  const VcId lane1 = writer->alloc_vc(1, 0);
  EXPECT_EQ(lane1, 1);

  // Stage a head on each lane; both are accepted (separate stagings).
  Flit head0 = make_flit(1, true, false, lane0);
  Flit head1 = make_flit(2, true, false, lane1);
  ASSERT_TRUE(writer->gate().admits(lane0, 0));
  writer->accept(head0, 0);
  ASSERT_TRUE(writer->gate().admits(lane1, 0));
  writer->accept(head1, 0);
}

TEST(MediumLanes, LaneClosesOnTailAndReopens) {
  std::vector<VcClassRange> classes = {{0, 4}};
  SharedMedium medium(base_params(), &classes);
  OutputEndpoint* writer = medium.writer(1);
  const VcId lane = writer->alloc_vc(0, 0);
  writer->accept(make_flit(1, true, false, lane), 0);
  writer->accept(make_flit(1, false, true, lane), 0);
  // Tail closes the packet: a new allocation succeeds immediately...
  EXPECT_NE(writer->alloc_vc(0, 1), kInvalidId);
  // ...but the new head cannot enter until the staging drains.
  EXPECT_FALSE(writer->gate().admits(lane, 1));
}

TEST(MediumLanes, TransmitsWholePacketThenAdvancesToken) {
  std::vector<VcClassRange> classes = {{0, 4}};
  SharedMedium medium(base_params(), &classes);
  OutputEndpoint* writer = medium.writer(0);
  const VcId lane = writer->alloc_vc(0, 0);
  writer->accept(make_flit(7, true, false, lane), 0);
  writer->accept(make_flit(7, false, true, lane), 0);
  medium.commit(0);

  // Step the medium until both flits are delivered.
  Cycle now = 1;
  InputEndpoint* reader = medium.reader(0);
  int delivered = 0;
  for (; now < 40 && delivered < 2; ++now) {
    medium.eval(now);
    medium.commit(now);
    while (const Flit* flit = reader->poll(now)) {
      EXPECT_EQ(flit->packet, 7);
      reader->pop(now);
      reader->push_credit(flit->vc, now);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(medium.counters().packets, 1);
  EXPECT_EQ(medium.counters().tx_bits, 2 * 128);
  EXPECT_FALSE(medium.transmitting());
}

TEST(MediumLanes, IdealArbitrationStartsFasterThanToken) {
  auto run = [&](ArbitrationKind arbitration) {
    std::vector<VcClassRange> classes = {{0, 4}};
    auto params = base_params();
    params.num_writers = 16;
    params.arbitration = arbitration;
    SharedMedium medium(params, &classes);
    // Writer 9 has a packet; measure cycles until transmission starts.
    OutputEndpoint* writer = medium.writer(9);
    const VcId lane = writer->alloc_vc(0, 0);
    writer->accept(make_flit(1, true, true, lane), 0);
    medium.commit(0);
    Cycle now = 1;
    for (; now < 100; ++now) {
      medium.eval(now);
      medium.commit(now);
      if (medium.transmitting() || medium.counters().flits > 0) break;
    }
    return now;
  };
  const Cycle token_start = run(ArbitrationKind::kTokenRing);
  const Cycle ideal_start = run(ArbitrationKind::kIdeal);
  EXPECT_LE(ideal_start, 2);
  EXPECT_GE(token_start, 9);  // token must walk to writer 9
}

TEST(MediumLanes, MulticastCountsEveryListener) {
  std::vector<VcClassRange> classes = {{0, 4}};
  auto params = base_params();
  params.num_writers = 2;
  params.num_readers = 3;
  params.multicast_rx = true;
  params.select_reader = [](NodeId, RouterId) { return 2; };
  SharedMedium medium(params, &classes);
  OutputEndpoint* writer = medium.writer(0);
  const VcId lane = writer->alloc_vc(0, 0);
  writer->accept(make_flit(1, true, true, lane), 0);
  medium.commit(0);
  for (Cycle now = 1; now < 20; ++now) {
    medium.eval(now);
    medium.commit(now);
  }
  EXPECT_EQ(medium.counters().tx_bits, 128);
  EXPECT_EQ(medium.counters().rx_bits, 3 * 128);
  // Delivery only at the intended reader.
  EXPECT_EQ(medium.reader(0)->poll(19), nullptr);
  EXPECT_EQ(medium.reader(1)->poll(19), nullptr);
  EXPECT_NE(medium.reader(2)->poll(19), nullptr);
}

// ---------------------------------------------------------------------------
// Medium sleep (DESIGN.md §5e). Each case runs the same scripted medium on a
// lockstep and an activity engine side by side, one `run(1)` at a time, and
// after every cycle requires the same token position, token-wait cycles,
// arbitration retries and launched flits, while the activity engine
// evaluates less. A sleep state that lacks its wake strands the medium (its
// flits fall behind lockstep's); a missing `settle` leaves the token and the
// wait counters behind between runs.

/// Calls `script(medium, now)` in its eval, like a router registered next to
/// the medium: before it ("early", the routers that write and read it) or
/// after it ("late", like the fault campaign). Always active.
class Script final : public Clocked {
 public:
  using Fn = std::function<void(SharedMedium&, Cycle)>;
  Script(SharedMedium* medium, Fn fn) : medium_(medium), fn_(std::move(fn)) {}
  void eval(Cycle now) override {
    if (fn_) fn_(*medium_, now);
  }
  void commit(Cycle /*now*/) override {}
  bool is_idle() const override { return false; }

 private:
  SharedMedium* medium_;
  Fn fn_;
};

/// One engine with an early script, the medium and a late script.
struct SleepRig {
  SleepRig(const SharedMedium::Params& params,
           const std::vector<VcClassRange>* classes, KernelMode mode,
           const Script::Fn& early, const Script::Fn& late)
      : medium(params, classes),
        early_script(&medium, early),
        late_script(&medium, late) {
    medium.bind_obs(registry);
    engine.set_mode(mode);
    engine.add(&early_script);
    engine.add(&medium);
    engine.add(&late_script);
  }
  std::int64_t arb_retries() const {
    return registry.value("medium.unit.arb_retries");
  }

  obs::Registry registry;
  SharedMedium medium;
  Script early_script;
  Script late_script;
  Engine engine;
};

/// A router-like sender on one writer: `flits`-flit packets to `dst`, one
/// flit per cycle whenever the writer's lane admits it.
class Sender {
 public:
  Sender(int writer, int flits, NodeId dst)
      : writer_(writer), flits_(flits), dst_(dst) {}

  void step(SharedMedium& medium, Cycle now) {
    OutputEndpoint* endpoint = medium.writer(writer_);
    if (lane_ == kInvalidId) {
      lane_ = endpoint->alloc_vc(0, now);
      if (lane_ == kInvalidId) return;
    }
    Flit flit = make_flit(packet_, seq_ == 0, seq_ == flits_ - 1, lane_);
    flit.dst = dst_;
    flit.dst_router = dst_;
    if (!endpoint->gate().admits(flit.vc, now)) return;
    endpoint->accept(flit, now);
    if (++seq_ == flits_) {
      seq_ = 0;
      lane_ = kInvalidId;
      ++packet_;
    }
  }

 private:
  int writer_;
  int flits_;
  NodeId dst_;
  PacketId packet_ = 0;
  int seq_ = 0;
  VcId lane_ = kInvalidId;
};

/// A reader router: ejects one due flit per cycle and returns its credit.
void drain_reader(SharedMedium& medium, int reader, Cycle now) {
  InputEndpoint* endpoint = medium.reader(reader);
  if (const Flit* flit = endpoint->poll(now)) {
    const VcId vc = flit->vc;
    endpoint->pop(now);
    endpoint->push_credit(vc, now);
  }
}

/// Builds a fresh script (with its own sender state) for each rig.
using ScriptFactory = std::function<Script::Fn()>;

/// Runs both kernels for `cycles` cycles, comparing after every `run(1)`.
/// Returns the activity kernel's medium evals (the scripts are evaluated on
/// every cycle in both kernels).
std::int64_t expect_sleep_parity(const SharedMedium::Params& params,
                                 const std::vector<VcClassRange>& classes,
                                 Cycle cycles, const ScriptFactory& early,
                                 const ScriptFactory& late = {}) {
  const auto make = [&](const ScriptFactory& factory) {
    return factory ? factory() : Script::Fn{};
  };
  SleepRig lockstep(params, &classes, KernelMode::kLockstep, make(early),
                    make(late));
  SleepRig activity(params, &classes, KernelMode::kActivity, make(early),
                    make(late));
  for (Cycle now = 0; now < cycles; ++now) {
    lockstep.engine.run(1);
    activity.engine.run(1);
    const MediumCounters& want = lockstep.medium.counters();
    const MediumCounters& got = activity.medium.counters();
    EXPECT_EQ(lockstep.medium.token_position(),
              activity.medium.token_position())
        << "cycle " << now;
    EXPECT_EQ(want.token_wait_cycles, got.token_wait_cycles) << "cycle " << now;
    EXPECT_EQ(lockstep.arb_retries(), activity.arb_retries()) << "cycle " << now;
    EXPECT_EQ(want.flits, got.flits) << "cycle " << now;
    EXPECT_EQ(want.token_recoveries, got.token_recoveries) << "cycle " << now;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(lockstep.medium.counters().flits, 0);
  const std::int64_t medium_evals =
      activity.engine.stats().evals - 2 * activity.engine.now();
  EXPECT_LT(activity.engine.stats().evals, lockstep.engine.stats().evals);
  return medium_evals;
}

SharedMedium::Params sleep_params(int writers, ArbitrationKind arbitration) {
  auto params = base_params();
  params.num_writers = writers;
  params.num_vcs = 2;
  params.buffer_depth = 2;
  params.arbitration = arbitration;
  return params;
}

/// Four writers stream 2-flit packets into a reader that only drains on
/// alternate 100-cycle windows: in between, every reader VC is out of
/// credits, so staged heads (and a head launched mid-packet) wait.
ScriptFactory credit_starved_readers() {
  return [] {
    auto senders = std::make_shared<std::vector<Sender>>();
    for (int w = 0; w < 4; ++w) senders->emplace_back(w, 2, 0);
    return [senders](SharedMedium& medium, Cycle now) {
      for (Sender& sender : *senders) sender.step(medium, now);
      if ((now / 100) % 2 == 1) drain_reader(medium, 0, now);
    };
  };
}

TEST(MediumSleep, StagedHeadBlockedOnReaderCredits) {
  const std::vector<VcClassRange> classes = {{0, 2}};
  const std::int64_t evals = expect_sleep_parity(
      sleep_params(4, ArbitrationKind::kTokenRing), classes, 400,
      credit_starved_readers());
  EXPECT_LT(evals, 300);
}

TEST(MediumSleep, IdealArbitrationWithEveryReaderVcOutOfCredits) {
  const std::vector<VcClassRange> classes = {{0, 2}};
  const std::int64_t evals = expect_sleep_parity(
      sleep_params(4, ArbitrationKind::kIdeal), classes, 400,
      credit_starved_readers());
  EXPECT_LT(evals, 300);
}

TEST(MediumSleep, SwmrTransmissionWaitsForItsSerializationSlot) {
  // Wireless SWMR: two writers, two listening readers, eight cycles per
  // flit. Between launches the medium sleeps until the next slot.
  const std::vector<VcClassRange> classes = {{0, 2}};
  auto params = sleep_params(2, ArbitrationKind::kTokenRing);
  params.medium = MediumType::kWireless;
  params.num_readers = 2;
  params.multicast_rx = true;
  params.cycles_per_flit = 8;
  params.buffer_depth = 8;
  params.select_reader = [](NodeId dst, RouterId) { return dst % 2; };
  const std::int64_t evals = expect_sleep_parity(
      params, classes, 400, [] {
        auto senders = std::make_shared<std::vector<Sender>>(
            std::vector<Sender>{{0, 4, 0}, {1, 4, 1}});
        return [senders](SharedMedium& medium, Cycle now) {
          for (Sender& sender : *senders) sender.step(medium, now);
          drain_reader(medium, 0, now);
          drain_reader(medium, 1, now);
        };
      });
  EXPECT_LT(evals, 150);
}

/// One single-flit packet per (cycle, writer) entry, staged at that cycle;
/// the reader drains as it goes.
ScriptFactory lone_packets(std::vector<std::pair<Cycle, int>> stagings) {
  return [stagings] {
    return [stagings](SharedMedium& medium, Cycle now) {
      for (const auto& [at, w] : stagings) {
        if (at != now) continue;
        OutputEndpoint* endpoint = medium.writer(w);
        const VcId lane = endpoint->alloc_vc(0, now);
        ASSERT_NE(lane, kInvalidId);
        endpoint->accept(make_flit(static_cast<PacketId>(at), true, true, lane),
                         now);
      }
      drain_reader(medium, 0, now);
    };
  };
}

TEST(MediumSleep, LoneWriterTenTokenPositionsAway) {
  // Sixteen writers: the head staged at cycle 0 on writer 11 becomes visible
  // with the token at writer 1, ten positions short. The medium sleeps until
  // the token reaches it, counting every skipped cycle as a token wait.
  const std::vector<VcClassRange> classes = {{0, 2}};
  const std::int64_t evals = expect_sleep_parity(
      sleep_params(16, ArbitrationKind::kTokenRing), classes, 200,
      lone_packets({{0, 11}, {50, 3}, {53, 9}, {120, 2}}));
  EXPECT_LT(evals, 60);
}

TEST(MediumSleep, TokenLostWhileAsleep) {
  // The token is lost (campaign-style: after the medium's eval, with a wake
  // for the next cycle) while the medium sleeps toward writer 11, and is
  // regenerated at writer 0 thirty cycles later; a second loss hits a medium
  // with nothing staged.
  const std::vector<VcClassRange> classes = {{0, 2}};
  expect_sleep_parity(
      sleep_params(16, ArbitrationKind::kTokenRing), classes, 250,
      lone_packets({{0, 11}, {100, 6}}), [] {
        return [](SharedMedium& medium, Cycle now) {
          if (now == 4 || now == 150) {
            medium.lose_token(now, now + 30);
            medium.request_wake(now + 1);
          }
        };
      });
}

}  // namespace
}  // namespace ownsim
