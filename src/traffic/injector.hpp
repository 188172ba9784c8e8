// Open-loop Bernoulli packet injector.
//
// Each node independently generates a packet with probability
// rate / packet_flits per cycle (so the offered load equals `rate` in
// flits/node/cycle), destined per the configured `TrafficPattern`.
// Self-addressed packets from deterministic permutations are delivered
// through the local router like any other traffic.
//
// Activity-driven kernel: instead of drawing one Bernoulli per node per
// cycle, each node *pre-draws* its stream until the next success and records
// that cycle (`next_fire`). The draws consumed are exactly the ones the
// per-cycle loop would have made, in the same per-node order (node streams
// are independent and nothing else reads them), so results — including RNG-
// sensitive destinations and alt-route coins — are bit-identical to the
// lockstep loop. Between fires the injector sleeps; a wakeup is posted for
// the earliest next event across nodes, kept in a min-heap so an eval costs
// O(due nodes x log nodes) rather than a scan of every node. Due nodes run
// in node-id order, as the scan did. Pre-drawing is capped at
// `kLookaheadCycles` per batch so a (near-)zero rate cannot spin forever;
// exhausted batches resume at the next wakeup. Re-enabling after
// `set_enabled(false)` restarts each node's Bernoulli process at the current
// cycle (the paused stream position is not rewound); no current caller
// re-enables an injector mid-run.
//
// Packets created inside the measurement window are tagged `measured`; the
// injector also tracks how many such packets exist so the driver can detect
// full drain of the measured population.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "network/network.hpp"
#include "obs/counters.hpp"
#include "sim/clocked.hpp"
#include "traffic/patterns.hpp"

namespace ownsim {

class Injector final : public Clocked {
 public:
  struct Params {
    double rate = 0.1;        ///< offered load, flits/node/cycle
    int packet_flits = 4;
    std::uint32_t flit_bits = 128;
    /// Master seed of this injector: per-node streams are derived from it
    /// via the SplitMix64 stream scheme. Parallel sweeps derive a distinct
    /// master seed per load point (see `SweepOptions::master_seed`) so no
    /// two points ever share a stream.
    std::uint64_t master_seed = 1;
  };

  /// Bernoulli pre-draws per node per batch; bounds the work a single eval
  /// can do when the success probability is (near) zero.
  static constexpr Cycle kLookaheadCycles = 4096;

  Injector(Network* network, TrafficPattern pattern, Params params);

  /// Packets created while now is in [begin, end) are tagged as measured.
  void set_measure_window(Cycle begin, Cycle end) {
    measure_begin_ = begin;
    measure_end_ = end;
  }

  /// Pauses/resumes packet generation (e.g. to let the network fully drain).
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    // Re-arm: the engine clamps the wake up to the current cycle.
    if (enabled_) request_wake(0);
  }
  bool enabled() const { return enabled_; }

  void eval(Cycle now) override;
  void commit(Cycle /*now*/) override {}

  /// Always dormant between events: every enabled eval (re)posts a wakeup
  /// for the earliest pre-drawn fire (or batch continuation) across nodes —
  /// the top of the next-event heap — and `set_enabled(true)` posts one
  /// after a pause. A disabled eval posts nothing and touches no node.
  bool is_idle() const override { return true; }

  std::int64_t packets_offered() const { return packets_offered_; }
  std::int64_t measured_offered() const { return measured_offered_; }
  const Params& params() const { return params_; }

 private:
  /// Per-node lookahead. Exactly one of these holds:
  ///  * next_fire != kNeverCycle — a success was pre-drawn for that cycle;
  ///    draws are consumed through next_fire inclusive.
  ///  * next_fire == kNeverCycle — draws are consumed for every cycle in
  ///    [.., drawn_until) without a success; drawing resumes at drawn_until.
  struct NodeLookahead {
    Cycle next_fire = kNeverCycle;
    Cycle drawn_until = 0;
  };

  /// Pre-draws node `src`'s stream from `drawn_until` until a success or
  /// `kLookaheadCycles` draws, updating the lookahead state.
  void advance(NodeLookahead& node, Rng& rng, double p);

  Network* network_;
  TrafficPattern pattern_;
  Params params_;
  std::vector<Rng> rngs_;  ///< one decorrelated stream per node
  std::vector<NodeLookahead> lookahead_;
  /// (next event, node) per node once armed: next_fire, or drawn_until when
  /// no fire is pending. Exactly one entry per node.
  using DueEntry = std::pair<Cycle, NodeId>;
  std::priority_queue<DueEntry, std::vector<DueEntry>, std::greater<DueEntry>>
      due_;
  std::vector<NodeId> batch_;  ///< scratch: nodes due this eval
  bool armed_ = false;  ///< lookahead initialized at the first enabled eval
  Cycle measure_begin_ = kNeverCycle;
  Cycle measure_end_ = kNeverCycle;
  bool enabled_ = true;
  std::int64_t packets_offered_ = 0;
  std::int64_t measured_offered_ = 0;
  obs::Counter obs_packets_offered_;
  obs::Counter obs_flits_offered_;
};

}  // namespace ownsim
