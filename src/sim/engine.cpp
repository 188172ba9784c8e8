#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace ownsim {

// Defined here (not in clocked.hpp) to break the Clocked <-> Engine include
// cycle: the inline helpers only need the Engine definition.
void Clocked::request_wake(Cycle at) {
  if (engine_ != nullptr) engine_->wake(this, at);
}

void Clocked::request_commit() {
  if (engine_ != nullptr) engine_->commit_request(this);
}

const char* to_string(KernelMode mode) {
  switch (mode) {
    case KernelMode::kActivity: return "activity";
    case KernelMode::kLockstep: return "lockstep";
  }
  throw std::logic_error("bad KernelMode");
}

void Engine::add(Clocked* component) {
  if (component == nullptr) throw std::invalid_argument("Engine::add: null");
  if (component->engine_ != nullptr) {
    throw std::logic_error("Engine::add: component already registered");
  }
  component->engine_ = this;
  component->sched_id_ = static_cast<int>(components_.size());
  component->event_driven_ = mode_ != KernelMode::kLockstep;
  components_.push_back(component);
  // New components start active (lockstep semantics from the next cycle);
  // idle ones retire after their first evaluated cycle.
  commit_requested_.push_back(false);
  sched_.resize(components_.size());
  sched_.activate(component->sched_id_);
}

void Engine::set_mode(KernelMode mode) {
  if (now_ != 0) {
    throw std::logic_error(
        "Engine::set_mode: kernels agree only from a cold start (now()==0)");
  }
  mode_ = mode;
  for (Clocked* c : components_) {
    c->event_driven_ = mode != KernelMode::kLockstep;
  }
}

void Engine::settle() {
  if (mode_ == KernelMode::kLockstep || now_ == 0) return;
  for (Clocked* c : components_) c->settle(now_ - 1);
}

void Engine::wake(Clocked* component, Cycle at) {
  // Lockstep evaluates everything anyway; recording wakes would only fill
  // the ring without ever draining it.
  if (mode_ == KernelMode::kLockstep) return;
  const int id = component->sched_id_;
  // Mid-step wakes cannot rewind into the executing cycle (the target's eval
  // slot may already be past); between steps, cycle now_ is still upcoming.
  const Cycle floor = stepping_ ? now_ + 1 : now_;
  const Cycle effective = std::max(at, floor);
  if (effective <= now_ && sched_.active(id)) return;
  sched_.post(id, effective, now_);
  ++stats_.wakes;
}

void Engine::commit_request(Clocked* component) {
  if (mode_ == KernelMode::kLockstep) return;
  const int id = component->sched_id_;
  if (commit_requested_[static_cast<std::size_t>(id)] || sched_.active(id)) {
    return;
  }
  commit_requested_[static_cast<std::size_t>(id)] = true;
  commit_extras_.push_back(id);
}

void Engine::step() {
  if (mode_ == KernelMode::kLockstep) {
    step_lockstep();
  } else {
    step_activity();
  }
}

void Engine::step_lockstep() {
  stepping_ = true;
  for (Clocked* c : components_) c->eval(now_);
  for (Clocked* c : components_) c->commit(now_);
  stats_.evals += static_cast<std::int64_t>(components_.size());
  ++stats_.cycles_stepped;
  stepping_ = false;
  ++now_;
}

void Engine::step_activity() {
  stepping_ = true;

  // 1. Activate every component whose wakeup is due; the sweep is the
  //    active subset in id (= registration) order, lockstep's relative eval
  //    order.
  const std::vector<int>& sweep = sched_.start_cycle(now_);

  // 2. Two-phase sweep. Evals may post wakes (>= now+1) and commit requests
  //    for dormant peers they staged writes into.
  for (const int id : sweep) {
    components_[static_cast<std::size_t>(id)]->eval(now_);
  }
  for (const int id : sweep) {
    components_[static_cast<std::size_t>(id)]->commit(now_);
  }
  for (const int id : commit_extras_) {
    components_[static_cast<std::size_t>(id)]->commit(now_);
    commit_requested_[static_cast<std::size_t>(id)] = false;
  }
  stats_.evals += static_cast<std::int64_t>(sweep.size());

  // 3. Retire actives that fell idle; promote extras whose freshly latched
  //    state leaves them non-idle (e.g. a channel that latched a credit).
  //    A separate pass after all commits, so is_idle() may read anything
  //    this cycle latched (sim/clocked.hpp).
  sched_.retire_if([this](int id) {
    return components_[static_cast<std::size_t>(id)]->is_idle();
  });
  for (const int id : commit_extras_) {
    if (!sched_.active(id) &&
        !components_[static_cast<std::size_t>(id)]->is_idle()) {
      sched_.activate(id);
    }
  }
  commit_extras_.clear();

  ++stats_.cycles_stepped;
  stepping_ = false;
  ++now_;
}

void Engine::skip_to_next_event(Cycle deadline) {
  const Cycle target = std::min(sched_.next_wake(now_), deadline);
  if (target > now_) {
    stats_.cycles_skipped += target - now_;
    now_ = target;
  }
}

void Engine::run(Cycle cycles) {
  const Cycle deadline = now_ + cycles;
  while (now_ < deadline) {
    if (globally_idle()) {
      skip_to_next_event(deadline);
    } else {
      step();
    }
  }
  settle();
}

bool Engine::run_until(const std::function<bool()>& done, Cycle max_cycles) {
  const Cycle deadline = now_ + max_cycles;
  if (mode_ == KernelMode::kLockstep) {
    while (now_ < deadline) {
      step();
      if (done()) return true;
    }
    return false;
  }
  bool fired = false;
  while (now_ < deadline) {
    if (globally_idle()) {
      // Nothing is awake: component state is frozen until the next wakeup, so
      // one check settles the whole gap. A true predicate still consumes one
      // (no-op) cycle, exactly as the lockstep loop would have.
      if (done()) {
        ++now_;
        fired = true;
        break;
      }
      skip_to_next_event(deadline);
      continue;
    }
    step();
    if (done()) {
      fired = true;
      break;
    }
  }
  settle();
  return fired;
}

}  // namespace ownsim
