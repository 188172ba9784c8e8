// Two-phase clocked component interface.
//
// Every hardware entity (router, channel, shared medium, NIC) advances in two
// phases per cycle:
//   eval(now)   — compute next state; may *stage* writes into other
//                 components' mailboxes but must not make them visible.
//   commit(now) — latch staged state; staged writes become visible for
//                 cycle now+1.
//
// All cross-component communication goes through latency >= 1 pipes, so the
// relative eval order of components never changes results.
//
// Quiescence contract (activity-driven kernel, DESIGN.md §5e): a component
// may declare itself dormant via `is_idle()`. The engine then skips its
// eval/commit until something wakes it. A component (or a peer staging a
// write into it) must therefore:
//   * call `request_wake(at)` whenever state will need evaluating at cycle
//     `at` (a flit/credit arrival, a scheduled injection), and
//   * call `request_commit()` during eval whenever it staged writes that
//     must be latched this cycle (the engine commits it even if dormant).
// Any per-cycle state a dormant component would have mutated anyway (e.g. a
// free-running token) must be reconstructed in closed form on the next eval.
// A component may also go dormant while it still holds work, if every eval
// until some peer's state changes would be a no-op (a router blocked on a
// downstream credit): the peer that owns that state must then wake it the
// cycle the change first becomes visible — a "sender-side wake", exact at
// now+1 when the peer is registered (evaluated) after it (DESIGN.md §5e).
// A component that wakes itself only from its own `commit` (a shared medium
// whose staging or credits just latched) needs no wake at all: once every
// commit of the cycle has run, the engine re-checks `is_idle()` for each
// component it committed and evaluates one that turned non-idle from the
// next cycle.
// State a dormant component accrues per skipped cycle (a token position, a
// wait counter) may lag while it sleeps; `settle(through)` brings it up to
// date, and the engine calls it whenever `run`/`run_until` return, so
// counters read between runs are always lockstep's.
// The default `is_idle()` returns false: unaware components simply stay in
// the active set every cycle, which is always correct (lockstep behaviour).
#pragma once

#include "common/types.hpp"

namespace ownsim {

class Engine;

class Clocked {
 public:
  virtual ~Clocked() = default;
  virtual void eval(Cycle now) = 0;
  virtual void commit(Cycle now) = 0;

  /// True when eval/commit would be a no-op until the next `request_wake`.
  /// Consulted by the engine after the cycle's commits; see the contract
  /// above.
  virtual bool is_idle() const { return false; }

  /// Brings state deferred while dormant (closed-form catch-up) up to date
  /// through cycle `through`, the last cycle the engine executed. Called by
  /// `Engine::run`/`run_until` on return under the activity kernel; must
  /// not change any later behaviour. No-op by default.
  virtual void settle(Cycle through) { (void)through; }

  /// Asks the engine to evaluate this component at cycle `at` (clamped to
  /// the earliest cycle the engine can still honor). Public because peers
  /// wake each other (a channel wakes its sink router at flit arrival).
  /// No-op when unscheduled. Defined in engine.cpp (avoids an include cycle).
  void request_wake(Cycle at);

 protected:
  /// True once this component is registered with an engine. Gap catch-up
  /// (token position, RR pointers) must be gated on this so manually driven
  /// components (unit tests) keep plain per-call semantics.
  bool scheduled() const { return engine_ != nullptr; }

  /// True when the engine may skip this component's cycles: registered with
  /// an activity-kernel engine. Sleep planning and closed-form catch-up
  /// gate on this, so lockstep (which evaluates every cycle) and manually
  /// driven components pay for neither.
  bool event_driven() const { return event_driven_; }

  /// Asks the engine to commit this component at the current cycle even if
  /// it is dormant (staged writes must latch). No-op when unscheduled.
  void request_commit();

 private:
  friend class Engine;
  Engine* engine_ = nullptr;
  int sched_id_ = -1;
  bool event_driven_ = false;  ///< maintained by Engine::add / set_mode
};

}  // namespace ownsim
