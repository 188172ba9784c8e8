// Deterministic, seeded runtime fault campaign.
//
// A `FaultCampaign` wires the link-level reliability protocol
// (fault/protocol.hpp) into a live network and injects mid-run fault events
// through the engine's wakes, so lockstep and activity kernels stay
// bit-identical under faults (DESIGN.md §5f):
//
//  * transient flit corruption — every wireless channel and wireless shared
//    medium corrupts flits independently with the per-flit error rate of the
//    campaign BER (by default the link-budget operating point,
//    ber_at_margin(snr_required, margin); see rf/ber.hpp);
//  * channel flaps — a wireless point-to-point link goes down for N cycles:
//    no new launches, in-flight copies retransmit after restoration;
//  * mid-run permanent channel death — the link keeps accepting (wormhole)
//    but every flit pays the exhausted-backoff penalty; after the time K
//    consecutive timeouts take, the persistent-failure detector marks the
//    cluster pair failed and patches the live route table onto the
//    2-wireless-hop degraded paths (patch_own256_routes, topology/own_fault.*)
//    — no rebuild, zero packets lost;
//  * token loss — a shared medium's token freezes (optionally forever); the
//    MAC recovery regenerates it at writer 0 after the configured delay.
//
// The campaign itself is a wake-driven `Clocked`: it evaluates only at event
// and detection cycles, is registered after every network component (its
// mutations at cycle T happen after all component evals of T, identically in
// both kernels), and derives every random stream from the campaign seed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/quantity.hpp"
#include "common/types.hpp"
#include "fault/protocol.hpp"
#include "fault/watchdog.hpp"
#include "obs/counters.hpp"
#include "sim/clocked.hpp"
#include "topology/own_fault.hpp"

namespace ownsim {
class Network;
}

namespace ownsim::fault {

/// Campaign-wide fault totals, summed over all channels and media. Plain
/// integers (not obs counters) so acceptance logic works with OWNSIM_OBS=OFF.
struct Totals {
  std::int64_t crc_errors = 0;
  std::int64_t retransmissions = 0;
  std::int64_t token_recoveries = 0;
  std::int64_t flows_degraded = 0;  ///< route-table entries patched online
  std::int64_t watchdog_trips = 0;
};

enum class EventKind : std::uint8_t {
  kFlap,      ///< wireless link down for `down_cycles`, then restored
  kKill,      ///< wireless link dies permanently; detector reroutes
  kTokenLoss  ///< shared medium loses its token until `recovery`
};

/// One scheduled fault event. kFlap and kKill target either a spec link
/// index (`link`, any wireless link on any topology — file: included) or an
/// OWN-256 cluster pair; only the cluster-pair kill form gets the detector's
/// online reroute (it is cluster-level, and needs the 5-class degraded
/// scheme) — a link-index kill leaves the exhausted-backoff rate as the
/// delivered service. kTokenLoss targets a medium.
struct Event {
  Cycle at = 0;  ///< injection cycle (>= 1)
  EventKind kind = EventKind::kFlap;
  int link = -1;         ///< kFlap: spec link index, or -1 to use the pair
  int src_cluster = -1;  ///< kFlap/kKill: OWN-256 source cluster
  int dst_cluster = -1;  ///< kFlap/kKill: OWN-256 destination cluster
  Cycle down_cycles = 200;  ///< kFlap: outage length
  int medium = 0;           ///< kTokenLoss: medium index
  Cycle recovery = 64;      ///< kTokenLoss: cycles until the token
                            ///< regenerates; kNeverCycle = never (deadlock)
};

struct CampaignConfig {
  bool enabled = false;
  std::uint64_t seed = 1;  ///< master seed; all campaign streams derive from it

  /// Per-bit error probability on wireless hops. Negative (default) derives
  /// it from the link-budget operating point: ber_at_margin(snr_required,
  /// margin). Stress campaigns use a negative margin for measurable rates.
  double ber = -1.0;
  Decibels snr_required{17.0};
  Decibels margin{2.5};

  // Reliability-protocol knobs (see fault/protocol.hpp).
  int ack_timeout = 8;
  int max_backoff_exp = 4;
  int max_attempts = 8;
  /// Consecutive timeouts on one channel before the persistent-failure
  /// detector declares it dead and reroutes (clamped to max_attempts).
  int detect_timeouts = 4;

  // Randomly placed events (drawn from `seed`, independent of `events`).
  int random_flaps = 0;          ///< flaps on random wireless links
  Cycle flap_down_cycles = 200;  ///< outage length of random flaps
  Cycle horizon = 4000;          ///< random event cycles drawn from [1, horizon]

  std::vector<Event> events;  ///< scripted events (any order; sorted by `at`)

  bool watchdog = false;
  Cycle watchdog_window = 20000;
  std::ostream* diagnostics = nullptr;  ///< watchdog dump target (null: cerr)
};

/// Link-layer fault counters (CRC errors, retransmissions, token
/// recoveries) summed over every channel and medium of `network`. The
/// campaign's totals and adapt-only runs both report these.
Totals link_layer_totals(const Network& network);

/// The campaign's effective per-bit error probability (explicit `ber`, or
/// the link-budget operating point when negative).
double resolve_ber(const CampaignConfig& config);

class FaultCampaign final : public Clocked {
 public:
  /// Validates the config against `network`'s spec and pre-computes the
  /// event schedule. Throws std::invalid_argument on events the topology
  /// cannot express (cluster-pair events without an OWN-256 wireless plan,
  /// kill events without the 5-class degraded route scheme, token loss on a
  /// medium without token arbitration, out-of-range indices).
  FaultCampaign(Network* network, CampaignConfig config);

  /// Arms the fault models on every wireless channel/medium and registers
  /// the campaign (and watchdog, if enabled) with the network's engine.
  /// Call once, after all other components are registered and before the
  /// first cycle.
  void attach();

  void eval(Cycle now) override;
  void commit(Cycle /*now*/) override {}

  /// Purely wake-driven: dormant between event/detection cycles.
  bool is_idle() const override { return true; }

  /// Sums fault counters over all channels and media, plus campaign state.
  Totals totals() const;

  const Protocol& protocol() const { return protocol_; }
  const FaultSet& faults() const { return faults_; }
  Watchdog* watchdog() { return watchdog_.get(); }
  bool watchdog_tripped() const {
    return watchdog_ != nullptr && watchdog_->tripped();
  }

 private:
  struct PendingDetection {
    Cycle at;
    int src_cluster;
    int dst_cluster;
  };

  /// Spec link index of the OWN-256 channel for a cluster pair; throws
  /// std::invalid_argument when the topology has none.
  std::size_t channel_for(int src_cluster, int dst_cluster) const;
  void apply(const Event& event, Cycle now);
  void detect(int src_cluster, int dst_cluster);
  void arm_wake(Cycle now);

  Network* network_;
  CampaignConfig config_;
  Protocol protocol_;
  std::vector<std::size_t> wireless_links_;  ///< spec indices, kWireless
  std::vector<Event> events_;    ///< sorted by `at` (stable)
  std::size_t next_event_ = 0;
  std::vector<PendingDetection> detections_;
  FaultSet faults_;
  std::int64_t flows_degraded_ = 0;
  obs::Counter obs_flows_degraded_;
  std::unique_ptr<Watchdog> watchdog_;
  bool attached_ = false;
};

}  // namespace ownsim::fault
