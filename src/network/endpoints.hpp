// Port endpoint interfaces.
//
// A router (or NIC) sees each of its ports through one of two narrow
// interfaces, so point-to-point channels and token-arbitrated shared media
// (photonic MWSR waveguides, wireless SWMR channels) plug in uniformly:
//
//  * `InputEndpoint`  — where flits arrive; the consumer polls, pops, and
//    returns credits as buffer slots free up.
//  * `OutputEndpoint` — where flits depart; supports downstream-VC allocation
//    (VCA) and per-cycle acceptance checks (SA/ST).
//
// For a `Channel` the downstream VC is a real VC of the next router's input
// port and credits are tracked per VC at the sender. For a shared medium the
// "VC" returned by `alloc_vc` is just the class id: the medium performs the
// real reader-VC assignment and credit check at transmission time, which
// models packet-granular token arbitration.
#pragma once

#include "common/types.hpp"
#include "network/flit.hpp"

namespace ownsim {

class InputEndpoint {
 public:
  virtual ~InputEndpoint() = default;

  /// Flit arriving this cycle, or nullptr. Stable until pop() or next cycle.
  virtual const Flit* poll(Cycle now) = 0;

  /// Consumes the flit returned by poll().
  virtual void pop(Cycle now) = 0;

  /// Returns one credit for `vc` to the upstream side (latency >= 1).
  virtual void push_credit(VcId vc, Cycle now) = 0;
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

  /// True if `flit` (already VC-allocated) can be accepted this cycle:
  /// serialization slot free and a buffer credit available. A refusal may
  /// schedule a wake for the caller at the cycle the refusal lifts (the
  /// sender-side wakes of DESIGN.md §5e); the answer itself has no side
  /// effects.
  virtual bool can_accept(const Flit& flit, Cycle now) const = 0;

  /// Hands the flit to the link/medium. Caller must have checked can_accept.
  virtual void accept(const Flit& flit, Cycle now) = 0;
};

}  // namespace ownsim
