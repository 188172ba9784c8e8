// Input-buffered virtual-channel router with the paper's 5-stage pipeline:
// RC (route computation) -> VCA (virtual-channel allocation) -> SA (switch
// allocation) -> ST (switch traversal) -> LT (link traversal).
//
// Each input VC advances through a per-packet state machine
// (IDLE -> ROUTING -> VCA -> ACTIVE) one stage per cycle; body flits reuse
// the packet's allocation and only contend for the switch. Switch allocation
// is separable input-first with round-robin priority at both stages. Flow
// control is credit-based wormhole; credits return through the upstream
// endpoint as buffer slots free. Per-port bitmasks of VC states let each
// stage walk only the VCs it can advance, in the order a full scan would.
// A VC that provably cannot act is parked: it leaves the mask its stage
// walks and waits in its output's waiter list until the output frees it.
// Endpoints publish their state (endpoints.hpp): intake reads each input's
// next arrival cycle and SA each output's acceptance gate, without a call.
//
// Port counts are asymmetric (e.g. an OWN photonic router reads ONE home
// waveguide but writes 15), so inputs and outputs are configured separately.
// Injection/ejection ports are plain ports wired to NIC channels by the
// Network assembler.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "network/channel.hpp"  // VcClassRange
#include "network/endpoints.hpp"
#include "network/flit.hpp"
#include "obs/counters.hpp"
#include "sim/clocked.hpp"

namespace ownsim {

/// Next-hop decision for a head flit at some router.
struct RouteEntry {
  PortId out_port = kInvalidId;
  std::int8_t vc_class = 0;
};

/// Supplies routing decisions. `route` is called once per packet per hop
/// (during RC); when `at == flit.dst_router` it must return the ejection port.
class RoutingOracle {
 public:
  virtual ~RoutingOracle() = default;
  virtual RouteEntry route(RouterId at, const Flit& head) const = 0;
};

/// Activity counters consumed by the power model.
struct RouterCounters {
  std::int64_t buffer_writes = 0;   ///< flits written into input VCs
  std::int64_t buffer_reads = 0;    ///< flits read out at switch traversal
  std::int64_t crossbar_flits = 0;  ///< flits through the crossbar
  std::int64_t crossbar_bits = 0;
  std::int64_t route_computations = 0;
  std::int64_t vc_allocations = 0;
  std::int64_t switch_allocations = 0;  ///< granted SA requests
};

class Router final : public Clocked {
 public:
  static constexpr int kMaxVcs = 64;  ///< VCs per port: one mask bit each

  struct Params {
    RouterId id = 0;
    int num_inputs = 0;   ///< total, including injection ports
    int num_outputs = 0;  ///< total, including ejection ports
    int num_vcs = 4;
    int buffer_depth = 8;
  };

  Router(Params params, const std::vector<VcClassRange>* classes,
         const RoutingOracle* oracle);

  /// Wiring (done once by the Network assembler before the first cycle).
  void connect_input(PortId port, InputEndpoint* endpoint);
  void connect_output(PortId port, OutputEndpoint* endpoint);

  void eval(Cycle now) override;
  void commit(Cycle /*now*/) override {}

  /// Dormant when no flit is buffered, or when the last eval left the
  /// router stalled. Empty: every pipeline stage needs a buffered flit to do
  /// anything (ROUTING/VCA imply a buffered head; ACTIVE with an empty
  /// buffer just waits for upstream). Stalled: no buffered flit can advance
  /// until an endpoint's published state changes — a gate opens, which the
  /// owning channel/medium announces with a wake the cycle after (DESIGN.md
  /// §5e, sender-side wakes), or a serialization slot ends, for which the
  /// router posts its own wake. Arrivals re-activate the router via the
  /// source channel/medium's sink wake. The only per-cycle state a dormant
  /// router would have touched — the VCA rotation pointer — is
  /// reconstructed in closed form at the next eval (see stage_vca).
  bool is_idle() const override { return occupancy_ == 0 || stalled_; }

  /// True when the last eval of an event-driven engine left flits buffered
  /// and the next eval could change no state: no VC is routing, every VC
  /// in VCA waits on a class its output refused (it is parked), and every
  /// ready VC's output gate is closed to it (parked) or frees only after
  /// the next cycle. It may hold right after an eval that did progress.
  /// Such an eval would be a pure function of endpoint state, so it repeats
  /// identically until a wake. Always false under lockstep and for routers
  /// not registered with an engine (manually driven unit tests).
  bool stalled() const { return stalled_; }

  RouterId id() const { return params_.id; }
  int num_inputs() const { return params_.num_inputs; }
  int num_outputs() const { return params_.num_outputs; }
  int radix() const { return std::max(params_.num_inputs, params_.num_outputs); }
  const RouterCounters& counters() const { return counters_; }

  /// Total flits currently buffered (used for drain detection).
  int occupancy() const { return occupancy_; }

  /// Registers this router's counters with `registry` (handles resolved
  /// once). Names: "router.<id>.{flits_forwarded,sa_retries,
  /// buffer_highwater}".
  void bind_obs(obs::Registry& registry);

  /// Writes a human-readable dump of every non-idle input VC (debug aid).
  void dump_state(std::ostream& os) const;

 private:
  enum class VcState : std::uint8_t { kIdle, kRouting, kVca, kActive };

  struct InputVc {
    VcState state = VcState::kIdle;
    RingBuffer<Flit> buffer{1};
    RouteEntry route;
    VcId out_vc = kInvalidId;
    int next_waiter = -1;  ///< next parked VC on route.out_port (waiter id)
  };

  struct InputPort {
    InputEndpoint* endpoint = nullptr;
    std::vector<InputVc> vcs;
    int rr_vc = 0;  ///< SA stage-1 round-robin pointer
    // Bit v describes vcs[v]; masks_match_states() is the definition.
    std::uint64_t routing = 0;     ///< kRouting
    std::uint64_t vca = 0;         ///< kVca, may be granted
    std::uint64_t vca_parked = 0;  ///< kVca, class refused or output unwired
    std::uint64_t ready = 0;       ///< kActive with a buffered flit
    std::uint64_t sa_parked = 0;   ///< kActive with a flit, lane closed
    std::uint64_t detect = 0;      ///< kIdle that gained a head this eval
  };

  struct OutputPort {
    OutputEndpoint* endpoint = nullptr;
    const OutputGate* gate = nullptr;  ///< the endpoint's, or one never open
    int rr_input = 0;  ///< SA stage-2 round-robin pointer
    /// Bit c: alloc_vc(c) refused since the last tail launched here. The
    /// refusal stands until then (OutputEndpoint::alloc_vc), so VCA skips
    /// the call.
    std::uint64_t refused = 0;
    Cycle slot_wake = -1;  ///< the gate's free_at last posted as a wake
    // Parked VCs routed here, as intrusive lists through
    // InputVc::next_waiter (-1 ends a list). VCA waiters return when a tail
    // leaves here, SA waiters when a lane of sa_lanes reopens.
    int vca_waiters = -1;
    int sa_waiters = -1;
    std::uint64_t sa_lanes = 0;  ///< bit d: an SA waiter waits on lane d
  };

  static constexpr std::uint64_t bit(int v) { return std::uint64_t{1} << v; }
  /// Waiter id of VC v at input i: the index a waiter list links by.
  static constexpr int waiter_id(int i, int v) { return i * kMaxVcs + v; }
  /// Moves VC v of input i from `vca` (or from RC) to `vca_parked`.
  void park_vca(int i, int v);
  /// Moves VC v of input i, whose output lane is closed, from `ready` to
  /// `sa_parked`.
  void park_sa(int i, int v);
  /// Returns every VCA waiter of output `o` to `vca` (a tail left there).
  void unpark_vca(std::size_t o);
  /// Returns to `ready` each SA waiter whose lane reopened since it parked.
  void unpark_reopened();
  void stage_intake(Cycle now);
  void stage_switch(Cycle now);  // SA + ST + LT launch
  void stage_vca(Cycle now);
  void stage_rc();
  /// Ends an event-driven eval: sets stalled_ (see stalled()) and posts a
  /// wake at the end of each serialization slot a ready VC waits for.
  void plan_sleep(Cycle now);
  bool masks_match_states() const;  // debug-build audit of the masks

  Params params_;
  const std::vector<VcClassRange>* classes_;
  const RoutingOracle* oracle_;
  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;
  /// Bit o % 64 of word o / 64: output o has SA waiters.
  std::vector<std::uint64_t> sa_waited_;
  int vca_rr_ = 0;  ///< round-robin start for VCA request order
  int occupancy_ = 0;
  bool stalled_ = false;  ///< see stalled()
  Cycle last_eval_ = -1;  ///< for vca_rr_ catch-up across skipped cycles
  RouterCounters counters_;
  obs::Counter obs_flits_forwarded_;
  obs::Counter obs_sa_retries_;
  obs::Gauge obs_buffer_highwater_;

  // Scratch for SA (persistent to avoid per-cycle allocation).
  std::vector<int> sa_request_;   ///< per input: winning VC index or -1
  std::vector<int> sa_winners_;   ///< inputs that nominated a VC this cycle
  std::vector<int> grant_key_;    ///< per output: RR distance of best request
  std::vector<int> grant_input_;  ///< per output: input holding best request
  std::vector<int> granted_outputs_;
};

}  // namespace ownsim
