// Port endpoint interfaces.
//
// A router (or NIC) sees each of its ports through one of two narrow
// interfaces, so point-to-point channels and token-arbitrated shared media
// (photonic MWSR waveguides, wireless SWMR channels) plug in uniformly:
//
//  * `InputEndpoint`  — where flits arrive; the consumer polls, pops, and
//    returns credits as buffer slots free up.
//  * `OutputEndpoint` — where flits depart; supports downstream-VC allocation
//    (VCA) and publishes which flits it would accept (SA/ST).
//
// For a `Channel` the downstream VC is a real VC of the next router's input
// port and credits are tracked per VC at the sender. For a shared medium the
// "VC" returned by `alloc_vc` is just the class id: the medium performs the
// real reader-VC assignment and credit check at transmission time, which
// models packet-granular token arbitration.
//
// Both interfaces publish state instead of answering polls: an input its
// next arrival cycle (`arrival_at`), an output its acceptance gate
// (`gate`). Only the owning endpoint writes them (DESIGN.md §5e), so
// callers read them without a call.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "network/flit.hpp"

namespace ownsim {

class InputEndpoint {
 public:
  virtual ~InputEndpoint() = default;

  /// Earliest cycle `poll` can return a flit (kNeverCycle: nothing in
  /// flight). Exact: `poll(now)` is non-null iff now >= arrival_at(). The
  /// endpoint moves it when its front changes: a flit latched into an empty
  /// pipe, a pop, or an arrival pushed out by an outage, a channel death or
  /// a CRC retransmission.
  Cycle arrival_at() const { return arrival_at_; }

  /// Flit arriving this cycle, or nullptr. Stable until pop() or next cycle.
  virtual const Flit* poll(Cycle now) = 0;

  /// Consumes the flit returned by poll().
  virtual void pop(Cycle now) = 0;

  /// Returns one credit for `vc` to the upstream side (latency >= 1).
  virtual void push_credit(VcId vc, Cycle now) = 0;

 protected:
  Cycle arrival_at_ = kNeverCycle;
};

/// What an output endpoint would refuse, published by the endpoint so SA
/// and the NIC test a flit without a call. The next flit on VC `d` (a
/// medium writer: class lane `d`) is accepted at cycle `now` iff
/// `admits(d, now)`.
///
/// Who writes it, and when:
///  * Channel sender. Bit d closes when `accept` takes the last credit of
///    VC d and opens when `Channel::eval` absorbs a credit into an empty
///    count. `accept` sets `free_at` to the end of the serialization slot;
///    `set_outage` may push it later.
///  * Shared-medium writer. Lane d closes when `accept` leaves it unable
///    to take the lane's next flit: a head (no packet in progress) needs the
///    lane's staging empty, a body flit a free staging slot. It opens when
///    `SharedMedium::eval` pops that staging back under the bound. `free_at`
///    stays 0.
///
/// Only the owning endpoint writes its gate. The caller's own `accept` is
/// the only event that closes a bit or delays `free_at` (besides an outage),
/// so a gate a stalled router saw closed can only open through the endpoint,
/// which then wakes that router (the sender-side wakes of DESIGN.md §5e), or
/// through time passing `free_at`, which the router waits for itself.
struct OutputGate {
  Cycle free_at = 0;          ///< no flit is accepted before this cycle
  std::uint64_t closed = 0;   ///< bit d: the next flit on VC d is refused

  bool admits(VcId vc, Cycle now) const {
    return now >= free_at && ((closed >> vc) & 1) == 0;
  }
};

class OutputEndpoint {
 public:
  virtual ~OutputEndpoint() = default;

  /// Tries to allocate a downstream VC for a new packet of `vc_class`
  /// (0 <= vc_class < 64, the width of the router's per-output refused
  /// mask). Returns kInvalidId when none is available this cycle.
  ///
  /// Contract: a refusal changes no state, and a refusal for a class stands
  /// until the caller itself passes a tail flit through `accept()` — only
  /// that frees a downstream VC or lane, and each endpoint has exactly one
  /// upstream caller. Router::stage_vca relies on it to skip asking again.
  virtual VcId alloc_vc(int vc_class, Cycle now) = 0;

  /// The acceptance gate (see OutputGate); VC ids are below 64.
  const OutputGate& gate() const { return gate_; }

  /// Hands the flit (already VC-allocated) to the link/medium. The caller
  /// must have seen `gate().admits(flit.vc, now)`.
  virtual void accept(const Flit& flit, Cycle now) = 0;

 protected:
  OutputGate gate_;
};

}  // namespace ownsim
