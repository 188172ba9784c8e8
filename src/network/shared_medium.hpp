// Token-arbitrated shared medium.
//
// Models the two shared-channel structures of the OWN architecture (and of
// the OptXB baseline):
//
//  * Photonic MWSR waveguide — many writers, ONE reader (the "home" tile).
//    A token circulates among the writers; the holder transmits one whole
//    packet (wormhole on the bus: the token is held until the tail flit is
//    launched), then the token moves on, one writer position per cycle.
//
//  * Wireless SWMR channel (OWN-1024) — several writers (one per cluster of
//    the transmitting group) sharing a token, and several readers (every
//    cluster of the destination group). The signal is *multicast*: only the
//    intended reader's input port receives the flits, but every listening
//    reader pays receive energy (`multicast_rx = true`), exactly as §III.B
//    describes ("the rest will discard it ... receiver power is consumed").
//
// Reader-side VC assignment and buffer credits are owned by the medium: the
// medium is the only writer into its reader ports, so it can account
// occupancy exactly; routers return credits through the reader endpoint.
// Writer ports expose `OutputEndpoint` with packet-granular admission (a new
// head is admitted only once the previous packet fully drained), which models
// the per-packet token arbitration of the paper; each writer's gate publishes
// that admission per class lane.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "network/channel.hpp"  // VcClassRange, LinkCounters
#include "network/endpoints.hpp"
#include "network/flit.hpp"
#include "obs/counters.hpp"
#include "sim/clocked.hpp"

namespace ownsim {

namespace obs {
class TraceWriter;
}

class Router;

/// Counters specific to shared media (token behavior, multicast RX cost).
struct MediumCounters {
  std::int64_t packets = 0;
  std::int64_t flits = 0;
  std::int64_t tx_bits = 0;
  std::int64_t rx_bits = 0;          ///< includes discarded multicast copies
  std::int64_t token_wait_cycles = 0;///< cycles a pending head waited for the token
  /// SWMR multicast: flit copies received-and-discarded by the non-target
  /// readers (§III.B "the rest will discard it"); 0 on MWSR media.
  std::int64_t multicast_discard_flits = 0;
  // Reliability-protocol counters (fault/protocol.hpp); plain integers so the
  // fault campaign's acceptance logic never depends on the obs registry.
  std::int64_t crc_errors = 0;       ///< receptions that failed the CRC
  std::int64_t retransmissions = 0;  ///< flit copies re-sent on a NACK
  std::int64_t token_recoveries = 0; ///< tokens regenerated after a loss
};

/// How writers are granted the medium.
///  kTokenRing — the paper's scheme: a token circulates one writer position
///               per cycle and is held for a whole packet ("token transfer
///               consumes a few extra cycles").
///  kIdeal     — zero-cost arbitration: any pending writer may start the
///               cycle the bus frees (round-robin fairness). Ablation
///               baseline isolating the token's latency cost.
enum class ArbitrationKind { kTokenRing, kIdeal };

class SharedMedium final : public Clocked {
 public:
  struct Params {
    MediumType medium = MediumType::kPhotonic;
    ArbitrationKind arbitration = ArbitrationKind::kTokenRing;
    int num_writers = 1;
    int num_readers = 1;
    int latency = 1;             ///< propagation, cycles
    int cycles_per_flit = 1;     ///< serialization on the medium
    int num_vcs = 4;             ///< per reader input port
    int buffer_depth = 8;        ///< per reader VC
    int max_packet_flits = 8;    ///< writer staging capacity
    Length distance;
    bool multicast_rx = false;   ///< SWMR: every reader pays RX energy
    std::string name;
    /// Given a flit's destination, which reader index receives it.
    std::function<int(NodeId dst, RouterId dst_router)> select_reader;
  };

  SharedMedium(Params params, const std::vector<VcClassRange>* classes);

  OutputEndpoint* writer(int index);
  InputEndpoint* reader(int index);

  void eval(Cycle now) override;
  void commit(Cycle now) override;

  /// Dormant whenever the next evals would change nothing but the token
  /// position and the token-wait counters (DESIGN.md §5e): nothing staged;
  /// an active transmission waiting for its serialization slot (self-wake
  /// at the slot) or for the writer's next flit / a reader credit; token
  /// arbitration until the token reaches the first writer that can start
  /// (self-wake then); ideal arbitration with no writer able to start. A
  /// commit that latches staging or credits the sleep could be waiting for
  /// ends it. Skipped cycles are caught up in closed form at the next eval
  /// or `settle`. A lost token forces per-cycle evals: the catch-up assumes
  /// a *rotating* token, so both kernels must observe the frozen token the
  /// same way (§5f).
  bool is_idle() const override { return sleep_ != Sleep::kAwake; }

  /// Catches the token and the token-wait counters up through `through`.
  void settle(Cycle through) override;

  /// Component to wake when a delivery reaches reader `index` (the router
  /// polling that reader endpoint). Wired once by the Network assembler.
  void set_reader_sink(int index, Clocked* sink) {
    readers_.at(static_cast<std::size_t>(index)).sink = sink;
  }

  /// Router driving writer `index`, woken (when stalled) the cycle after a
  /// staging pop opens one of that writer's lanes — the only event that can
  /// re-open a lane to its next flit. Wired once by the Network assembler.
  void set_writer_source(int index, Router* source) {
    writers_.at(static_cast<std::size_t>(index)).source = source;
  }

  const MediumCounters& counters() const { return counters_; }
  const Params& params() const { return params_; }
  int token_position() const { return token_; }
  bool transmitting() const { return active_; }

  /// Registers this medium's counters with `registry` (handles resolved
  /// once). Names: "medium.<name>.{packets,flits,token_wait_cycles,
  /// arb_retries,multicast_discard_flits}".
  void bind_obs(obs::Registry& registry);

  /// Attaches a trace writer: token grants become instant events and
  /// per-packet bus occupancy complete events on (kPidMedia, `tid`).
  void set_trace(obs::TraceWriter* trace, int tid);

  // ---- runtime fault model (fault/campaign.*) -------------------------------
  /// Arms the reliability protocol: each launched flit corrupts independently
  /// with the protocol's per-flit error rate, and the writer retries while
  /// holding the token — arrival and the next transmit slot slide by the
  /// summed backoff. `registry` may be null (no obs counters).
  void set_fault_model(const fault::Protocol* protocol, Rng rng,
                       obs::Registry* registry);

  /// MAC-level token loss: from the next cycle the token is frozen — no
  /// rotation, no new grants (the active transmission, if any, completes).
  /// At `recover_at` the recovery protocol regenerates the token at writer 0;
  /// `kNeverCycle` means it is never recovered (deadlock — watchdog fodder).
  /// Token-ring media only. The caller must post a wake (campaign does).
  void lose_token(Cycle now, Cycle recover_at);
  bool token_lost() const { return token_loss_pending_; }

  // ---- online adaptation hooks (adapt/controller.hpp) -----------------------
  /// Overrides the armed protocol's static `ber` for this medium's
  /// corruption draws with a live, thermally-driven value; timing parameters
  /// still come from the protocol. Negative restores the static point.
  void set_live_ber(double ber) { live_ber_ = ber; }
  double live_ber() const { return live_ber_; }

  /// Changes the serialization constraint for future launches (rate
  /// backoff). The active transmission keeps its already-reserved slots.
  void set_cycles_per_flit(int cycles_per_flit);

 private:
  // Writers stage packets per VC class. This is load-bearing for deadlock
  // freedom: in OWN, pre-wireless (class 0) and post-wireless (class 1)
  // packets share photonic writer ports, and a single shared staging buffer
  // would let a blocked class-0 packet stall class-1 behind it, closing a
  // class-0 -> wireless -> class-1 -> class-0 dependency cycle.
  struct ClassStaging {
    RingBuffer<Flit> staging{1};
    std::vector<Flit> staged_in;  // becomes visible to the medium at commit
    int staged_count = 0;         // staging.size() + staged_in.size()
    bool packet_open = false;     // a packet has been VCA'd and not yet fully
                                  // accepted (head..tail) on this class
    bool in_packet = false;       // its head accepted, its tail not yet: the
                                  // lane's next flit is a body flit

    /// The gate rule: the lane refuses its next flit.
    bool closed() const {
      return in_packet ? staged_count >= static_cast<int>(staging.capacity())
                       : staged_count > 0;
    }
  };

  struct Writer final : OutputEndpoint {
    VcId alloc_vc(int vc_class, Cycle now) override;
    void accept(const Flit& flit, Cycle now) override;
    /// Republishes lane `c`'s gate bit; true when the lane just opened.
    bool publish(int c);

    SharedMedium* medium = nullptr;
    int index = 0;
    Router* source = nullptr;  ///< woken when a staging pop opens a lane
    std::vector<ClassStaging> per_class;
    int rr_class = 0;  ///< round-robin among classes with pending heads
  };

  struct Reader final : InputEndpoint {
    const Flit* poll(Cycle now) override;
    void pop(Cycle now) override;
    void push_credit(VcId vc, Cycle now) override;
    void set_arrival_at(Cycle at) { arrival_at_ = at; }

    SharedMedium* medium = nullptr;
    int index = 0;
    struct Timed {
      Flit flit;
      Cycle arrival;
    };
    std::deque<Timed> delivery;
    struct TimedCredit {
      VcId vc;
      Cycle arrival;
    };
    std::deque<TimedCredit> credit_pipe;
    std::vector<TimedCredit> staged_credits;
    std::vector<int> credits;      // per VC
    std::vector<bool> vc_busy;     // per VC, owned by the medium
    Clocked* sink = nullptr;       // woken at delivery arrivals
  };

  /// Attempts to start transmitting a staged head packet of writer `w`
  /// (round-robin among its per-class stagings).
  bool try_start(int w, Cycle now);

  /// `try_start`'s test without its side effects: some staged head of
  /// writer `w` has a free reader VC with a credit.
  bool can_start(int w) const;

  /// The first writer `w`, in token order from writer `from`, that has a
  /// staged lane and for which `pred(w)` holds; -1 if none. Walks only the
  /// set bits of `staged_writers_`.
  template <typename Pred>
  int first_staged(int from, Pred&& pred) const;

  /// Some writer has a staged lane (a head waits for the token).
  bool any_staged() const;

  /// Debug-build audit: writer `w`'s gate and staged-writer bit, and every
  /// reader's `arrival_at`, equal what the lanes' staging counts,
  /// `in_packet` flags and the delivery fronts give. Asserted for
  /// every writer whose lanes a cycle changed: each that accepted a flit
  /// (after the commit's latch) and the transmitting one (after eval and
  /// commit). Auditing all 255 writers of an OptXB-1024 waveguide every cycle
  /// made a Debug lockstep run 8x slower.
  bool gates_match_state(int w) const;

  /// Replays the cycles since the last eval that the engine skipped, through
  /// cycle `through`, in closed form: a rotating token moves one writer per
  /// cycle, and while heads waited for it (kTokenWait) every cycle was also
  /// a token wait and an arbitration retry.
  void catch_up(Cycle through);

  /// Ends a scheduled eval: picks the sleep state (and self-wake) that
  /// keeps the skipped cycles lockstep-identical, or stays awake.
  void plan_sleep(Cycle now);

  /// Why the medium is dormant; kAwake keeps it in the active set.
  enum class Sleep : std::uint8_t {
    kAwake,
    kEmpty,      ///< no transmission, nothing staged
    kSlot,       ///< transmitting, next flit ready; self-wake at the slot
    kBlocked,    ///< transmitting without flit/credit, or ideal arbitration
                 ///< with no writer able to start
    kTokenWait,  ///< token arbitration with staged heads; self-wake when the
                 ///< token reaches one that can start (if any)
  };

  Params params_;
  const std::vector<VcClassRange>* classes_;
  std::vector<Writer> writers_;
  std::vector<Reader> readers_;
  std::vector<int> rr_vc_next_;  // per-class RR pointer for reader VC choice

  int token_ = 0;
  Cycle last_eval_ = -1;  ///< last cycle the token/counters account for
  Sleep sleep_ = Sleep::kAwake;
  bool active_ = false;
  int active_writer_ = 0;
  int active_class_ = 0;
  int active_reader_ = 0;
  VcId active_vc_ = kInvalidId;
  Cycle next_tx_slot_ = 0;

  // Dirty lists so eval/commit cost scales with activity, not endpoint count
  // (an OptXB-1024 waveguide has 255 writers; scanning them per cycle would
  // dominate runtime). Each endpoint appears at most once per cycle.
  std::vector<int> dirty_writers_;
  std::vector<int> dirty_readers_;
  /// Bit w: writer w has a lane with a non-empty `staging` (see
  /// first_staged). One word per 64 writers.
  std::vector<std::uint64_t> staged_writers_;

  // Fault-model state (null protocol = healthy medium, zero overhead).
  const fault::Protocol* fault_ = nullptr;
  Rng fault_rng_{};
  double live_ber_ = -1.0;  ///< < 0: use the protocol's static ber
  bool token_loss_pending_ = false;
  Cycle token_lost_until_ = kNeverCycle;

  MediumCounters counters_;
  obs::Counter obs_packets_;
  obs::Counter obs_flits_;
  obs::Counter obs_token_wait_;
  obs::Counter obs_arb_retries_;
  obs::Counter obs_discards_;
  obs::Counter obs_crc_errors_;
  obs::Counter obs_retransmissions_;
  obs::Counter obs_token_recoveries_;

  // Trace state (observational only).
  obs::TraceWriter* trace_ = nullptr;
  int trace_tid_ = 0;
  Cycle active_start_ = 0;  ///< grant cycle of the active transmission
};

}  // namespace ownsim
