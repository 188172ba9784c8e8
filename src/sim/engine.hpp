// Cycle-driven simulation kernel.
//
// Holds a registry of non-owning `Clocked*` components and advances them in
// two phases per cycle. Components are owned by whoever built them (normally
// `Network`). Two kernels share the registry (see DESIGN.md §5e):
//
//  * kActivity (default) — activity-driven: only components in the active
//    set are evaluated/committed; a ring of future wakeups re-activates
//    dormant components, and `run`/`run_until` fast-forward `now_` across
//    globally idle gaps (bounded by the next scheduled wakeup). Both live in
//    a `Scheduler` (sim/scheduler.hpp). Bit-identical to lockstep by the
//    quiescence contract in sim/clocked.hpp.
//  * kLockstep — the original tick-everything loop: eval all, commit all,
//    now()+1. Escape hatch + differential-testing baseline; selected with
//    `set_mode` (ExperimentConfig::kernel, key=value `kernel=lockstep`).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "sim/clocked.hpp"
#include "sim/scheduler.hpp"

namespace ownsim {

enum class KernelMode {
  kActivity,  ///< active set + wake ring + idle skip-ahead
  kLockstep,  ///< eval/commit every component every cycle
};

/// "activity" | "lockstep" (the key=value `kernel` names).
const char* to_string(KernelMode mode);

class Engine {
 public:
  /// Mode defaults to kActivity; `set_mode` selects another kernel.
  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a component. Must not be null, must not already be registered;
  /// pointer must outlive the engine. Newly added components start active
  /// (they are evaluated from the next cycle, exactly like lockstep) and
  /// retire on their own once `is_idle()`.
  void add(Clocked* component);

  /// Selects the kernel. Only allowed before the first cycle (now() == 0):
  /// the kernels agree on component state only from a cold start.
  void set_mode(KernelMode mode);
  KernelMode mode() const { return mode_; }

  /// Current cycle (number of completed steps).
  Cycle now() const { return now_; }

  /// Advances exactly one cycle (never skips ahead, in either mode).
  void step();

  /// Advances `cycles` cycles; in activity mode, globally idle stretches are
  /// skipped in one jump to the next wakeup (or to the end of the budget).
  /// `run` and `run_until` settle every component on return (see
  /// Clocked::settle), so state read between runs is lockstep's; `step`
  /// does not.
  void run(Cycle cycles);

  /// Steps until `done()` returns true or `max_cycles` elapse. Returns true
  /// if `done()` fired. The predicate is checked after every *active* cycle
  /// and once per idle gap (state cannot change while nothing is awake), so
  /// it must be a pure function of component state — not of `now()` — for
  /// the check to be exact in activity mode. Lockstep checks every cycle.
  bool run_until(const std::function<bool()>& done, Cycle max_cycles);

  std::size_t num_components() const { return components_.size(); }

  /// Components currently in the active set (diagnostics/tests).
  std::size_t num_active() const { return sched_.num_active(); }

  /// Kernel statistics (observational; reset never, monotone within a run).
  struct Stats {
    std::int64_t cycles_stepped = 0;  ///< cycles with at least one eval
    std::int64_t cycles_skipped = 0;  ///< cycles fast-forwarded while idle
    std::int64_t evals = 0;           ///< component evals performed
    std::int64_t wakes = 0;           ///< wakeups posted, duplicates included
  };
  Stats stats() const { return stats_; }

 private:
  friend class Clocked;

  /// Posts a wakeup for `component` at cycle `at` (clamped: never before the
  /// next cycle the engine will execute). Called via Clocked::request_wake.
  void wake(Clocked* component, Cycle at);

  /// Marks `component` for commit this cycle even if dormant. Called via
  /// Clocked::request_commit (only meaningful during an eval phase).
  void commit_request(Clocked* component);

  void step_lockstep();
  void step_activity();

  /// Calls `settle(now_ - 1)` on every component (activity kernel; lockstep
  /// defers nothing).
  void settle();

  /// True when no component is active and no wakeup is due at `now_`
  /// (then nothing can change until the scheduler's next wake).
  bool globally_idle() const {
    return mode_ != KernelMode::kLockstep && !sched_.any_active() &&
           sched_.next_wake(now_) > now_;
  }

  /// Jumps `now_` to the next wakeup, clamped to `deadline`.
  void skip_to_next_event(Cycle deadline);

  std::vector<Clocked*> components_;
  Cycle now_ = 0;
  KernelMode mode_ = KernelMode::kActivity;

  Scheduler sched_;  ///< activity-kernel active set + wakes, by component id
  std::vector<int> commit_extras_;  ///< dormant ids to commit this cycle
  std::vector<bool> commit_requested_;  ///< per id, cleared per cycle
  bool stepping_ = false;  ///< inside step(): same-cycle wakes defer to now+1

  Stats stats_;
};

}  // namespace ownsim
