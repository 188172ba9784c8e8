// Parallel (partitioned) kernel: the waved epoch schedule of DESIGN.md §5i.
//
// One epoch == one cycle (the minimum cross-component pipe latency, i.e. the
// conservative lookahead bound). Each cycle runs as:
//
//   barrier A   coordinator published {kStep, now}
//     slots:    per lane — activate due wakeups, eval wave-1 actives
//   barrier B
//     slots:    per lane — eval wave-2 actives (may read a wave-1 router's
//               stalled() flag: its only writer finished before B)
//   barrier C
//     coordinator: activate + eval the serial lane (id order), exclusive —
//     the driver extras may mutate any component (fault injection, route
//     patches) exactly as they do after the full sweep in the sequential
//     kernel, because their ids are the highest in the registry.
//   barrier D
//     everyone:  per lane — merge boundary staging buffers (wakes + commit
//     requests raised for this lane during the waves), commit actives and
//     extras, retire idle components, promote non-idle extras.
//   barrier E   coordinator advances now_.
//
// The coordinator is worker slot 0 — it evaluates that slot's lanes in
// every parallel phase — and the pool runs slots 1..threads-1, so the
// barrier has `threads` parties and no thread idles through a wave.
//
// Determinism: within a lane everything runs in ascending id order; across
// lanes the only shared state is (a) the commit-request bytes of per-lane
// ids (disjoint; each lane has its own scheduler), (b) the staging buffers
// (single writer during waves, single reader at commit, ordered by the
// barriers), and (c) component state whose cross-wave access pattern the
// §5i pair argument shows to be conflict-free. A wake is a bit per
// (cycle, id), so merge order is immaterial.
#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace ownsim {

namespace detail {
thread_local ParallelEvalCtx* tl_parallel_ctx = nullptr;
}  // namespace detail

void ParallelPlan::validate(std::size_t num_components) const {
  if (partition.size() != wave.size()) {
    throw std::invalid_argument(
        "ParallelPlan: partition/wave size mismatch");
  }
  if (partition.size() > num_components) {
    throw std::invalid_argument(
        "ParallelPlan: plan covers more components than registered");
  }
  if (num_partitions < 1) {
    throw std::invalid_argument("ParallelPlan: need >= 1 partition");
  }
  for (std::size_t i = 0; i < partition.size(); ++i) {
    if (partition[i] < 0 || partition[i] >= num_partitions) {
      throw std::invalid_argument("ParallelPlan: partition out of range");
    }
    if (wave[i] != 1 && wave[i] != 2) {
      throw std::invalid_argument("ParallelPlan: wave must be 1 or 2");
    }
  }
}

namespace {
unsigned clamp_workers(unsigned threads, int partitions) {
  const unsigned cap = partitions > 0 ? static_cast<unsigned>(partitions) : 1u;
  if (threads < 1u) threads = 1u;
  return std::min(threads, cap);
}
}  // namespace

ParallelRuntime::ParallelRuntime(Engine* engine, ParallelPlan plan,
                                 unsigned threads)
    : engine_(engine),
      plan_(std::move(plan)),
      lanes_(static_cast<std::size_t>(plan_.num_partitions) + 1),
      worker_errors_(clamp_workers(threads, plan_.num_partitions)),
      barrier_(static_cast<int>(worker_errors_.size())) {
  for (ParallelLane& lane : lanes_) {
    lane.wake_out.resize(lanes_.size());
    lane.commit_out.resize(lanes_.size());
  }
  // Slot 0 is the coordinator itself; the pool runs slots 1..threads-1.
  const int slots = static_cast<int>(worker_errors_.size());
  if (slots > 1) pool_.emplace(static_cast<unsigned>(slots - 1));
  workers_.reserve(worker_errors_.size());
  for (int slot = 1; slot < slots; ++slot) {
    workers_.push_back(
        pool_->submit([this, slot] { engine_->parallel_worker(this, slot); }));
  }
}

ParallelRuntime::~ParallelRuntime() {
  command_.store(Command::kExit, std::memory_order_relaxed);
  barrier_.arrive_and_wait();  // release the workers with the exit command
  barrier_.arrive_and_wait();  // exit acknowledgement
  for (std::future<void>& worker : workers_) worker.get();
  // pool_ (last member) joins the worker threads before barrier_ dies.
}

Engine::~Engine() = default;

void Engine::configure_parallel(ParallelPlan plan, unsigned threads) {
  if (now_ != 0) {
    throw std::logic_error(
        "Engine::configure_parallel: only from a cold start (now()==0)");
  }
  if (mode_ != KernelMode::kParallel) {
    throw std::logic_error(
        "Engine::configure_parallel: set_mode(KernelMode::kParallel) first");
  }
  plan.validate(components_.size());
  if (runtime_ != nullptr) teardown_parallel();
  runtime_ = std::make_unique<ParallelRuntime>(this, std::move(plan), threads);
  distribute_to_lanes();
}

void Engine::teardown_parallel() {
  collect_from_lanes();
  runtime_.reset();
}

void Engine::distribute_to_lanes() {
  ParallelRuntime& rt = *runtime_;
  // Local layout: each lane's wave-1 members, then its wave-2 members, each
  // in id order (wave_of is 1 for every id past the plan).
  rt.local_.resize(components_.size());
  for (const int wave : {1, 2}) {
    for (Clocked* c : components_) {
      if (rt.wave_of(c->sched_id_) != wave) continue;
      std::vector<Clocked*>& members = rt.lane(c->sched_id_).members;
      rt.local_[static_cast<std::size_t>(c->sched_id_)] =
          static_cast<int>(members.size());
      members.push_back(c);
    }
    for (ParallelLane& lane : rt.lanes_) {
      if (wave == 1) lane.wave2_begin = lane.members.size();
      lane.sched.resize(lane.members.size());
    }
  }
  sched_.move_out(
      now_,
      [&](int id) { rt.lane(id).sched.activate(rt.local_of(id)); },
      [&](int id, Cycle at) {
        rt.lane(id).sched.post(rt.local_of(id), at, now_);
      });
  for (const int id : commit_extras_) rt.lane(id).commit_extras.push_back(id);
  commit_extras_.clear();
}

void Engine::collect_from_lanes() {
  for (ParallelLane& lane : runtime_->lanes_) {
    const auto id = [&lane](int i) {
      return lane.members[static_cast<std::size_t>(i)]->sched_id_;
    };
    lane.sched.move_out(
        now_, [&](int i) { sched_.activate(id(i)); },
        [&](int i, Cycle at) { sched_.post(id(i), at, now_); });
    commit_extras_.insert(commit_extras_.end(), lane.commit_extras.begin(),
                          lane.commit_extras.end());
    lane.commit_extras.clear();
    stats_.evals += lane.evals;
    stats_.wakes += lane.wakes;
    lane.evals = 0;
    lane.wakes = 0;
  }
}

std::size_t Engine::num_active() const {
  if (runtime_ == nullptr) return sched_.num_active();
  std::size_t total = 0;
  for (const ParallelLane& lane : runtime_->lanes_) {
    total += lane.sched.num_active();
  }
  return total;
}

Engine::Stats Engine::stats() const {
  Stats total = stats_;
  if (runtime_ != nullptr) {
    for (const ParallelLane& lane : runtime_->lanes_) {
      total.evals += lane.evals;
      total.wakes += lane.wakes;
    }
  }
  return total;
}

void Engine::lane_add_active(int id) {
  // Past the plan: the serial lane, all wave 1, and ids only grow, so the
  // new member appends to both the lane's id order and its wave-1 range.
  ParallelRuntime& rt = *runtime_;
  ParallelLane& lane = rt.lane(id);
  rt.local_.push_back(static_cast<int>(lane.members.size()));
  lane.members.push_back(components_[static_cast<std::size_t>(id)]);
  lane.wave2_begin = lane.members.size();
  lane.sched.resize(lane.members.size());
  lane.sched.activate(rt.local_of(id));
}

void Engine::parallel_wake(ParallelEvalCtx& ctx, int id, Cycle effective) {
  ParallelRuntime& rt = *runtime_;
  const int dst = rt.lane_of(id);
  if (dst == ctx.lane_index) {
    ctx.lane->sched.post(rt.local_of(id), effective, ctx.now);
    ++ctx.lane->wakes;
  } else {
    // Boundary wake: staged per (source lane, destination lane) edge and
    // merged into the owner's scheduler at the commit phase. A wake is a
    // bit per (cycle, id), so merge order cannot perturb the schedule.
    ctx.lane->wake_out[static_cast<std::size_t>(dst)].push_back(
        {effective, id});
  }
}

void Engine::parallel_commit_request(ParallelEvalCtx& ctx, int id) {
  ParallelRuntime& rt = *runtime_;
  const int dst = rt.lane_of(id);
  if (dst == ctx.lane_index) {
    if (commit_requested_[static_cast<std::size_t>(id)] != 0 ||
        ctx.lane->sched.active(rt.local_of(id))) {
      return;
    }
    commit_requested_[static_cast<std::size_t>(id)] = 1;
    ctx.lane->commit_extras.push_back(id);
  } else {
    // Requests for a foreign component are staged unconditionally; the
    // owning lane deduplicates at merge time (two lanes may legitimately
    // request the same channel in one cycle — flit from one side, credit
    // from the other — and the flag byte belongs to the owner).
    ctx.lane->commit_out[static_cast<std::size_t>(dst)].push_back(id);
  }
}

void Engine::run_lane_front(ParallelRuntime& rt, int lane_index, Cycle now) {
  ParallelLane& lane = rt.lanes_[static_cast<std::size_t>(lane_index)];
  const std::vector<int>& sweep = lane.sched.start_cycle(now);
  const auto wave2 = std::lower_bound(sweep.begin(), sweep.end(),
                                      static_cast<int>(lane.wave2_begin));
  lane.sweep_wave2 = static_cast<std::size_t>(wave2 - sweep.begin());
  eval_lane(lane, lane_index, now, sweep.begin(), wave2);
}

void Engine::run_lane_wave2(ParallelRuntime& rt, int lane_index, Cycle now) {
  ParallelLane& lane = rt.lanes_[static_cast<std::size_t>(lane_index)];
  const std::vector<int>& sweep = lane.sched.sweep();
  eval_lane(lane, lane_index, now,
            sweep.begin() + static_cast<std::ptrdiff_t>(lane.sweep_wave2),
            sweep.end());
}

void Engine::eval_lane(ParallelLane& lane, int lane_index, Cycle now,
                       std::vector<int>::const_iterator begin,
                       std::vector<int>::const_iterator end) {
  ParallelEvalCtx ctx{this, &lane, lane_index, now};
  detail::tl_parallel_ctx = &ctx;
  for (auto it = begin; it != end; ++it) {
    lane.members[static_cast<std::size_t>(*it)]->eval(now);
  }
  lane.evals += end - begin;
  detail::tl_parallel_ctx = nullptr;
}

void Engine::finish_lane(ParallelRuntime& rt, int lane_index, Cycle now) {
  ParallelLane& lane = rt.lanes_[static_cast<std::size_t>(lane_index)];
  // Merge the boundary staging buffers published for this lane. Commit
  // requests deduplicate here against the owner's flags, matching the
  // sequential kernel's enqueue-time dedup (set membership is identical;
  // only commit order within the set differs, and commits are
  // component-local).
  for (ParallelLane& src : rt.lanes_) {
    auto& wakes = src.wake_out[static_cast<std::size_t>(lane_index)];
    for (const auto& [at, id] : wakes) {
      lane.sched.post(rt.local_of(id), at, now);
    }
    lane.wakes += static_cast<std::int64_t>(wakes.size());
    wakes.clear();
    auto& requests = src.commit_out[static_cast<std::size_t>(lane_index)];
    for (const int id : requests) {
      if (commit_requested_[static_cast<std::size_t>(id)] != 0 ||
          lane.sched.active(rt.local_of(id))) {
        continue;
      }
      commit_requested_[static_cast<std::size_t>(id)] = 1;
      lane.commit_extras.push_back(id);
    }
    requests.clear();
  }
  const auto member = [&lane](int i) {
    return lane.members[static_cast<std::size_t>(i)];
  };
  ParallelEvalCtx ctx{this, &lane, lane_index, now};
  detail::tl_parallel_ctx = &ctx;
  for (const int i : lane.sched.sweep()) member(i)->commit(now);
  for (const int id : lane.commit_extras) {
    components_[static_cast<std::size_t>(id)]->commit(now);
    commit_requested_[static_cast<std::size_t>(id)] = 0;
  }
  // Retire actives that fell idle; promote extras whose freshly latched
  // state leaves them non-idle — same rules as step_activity.
  lane.sched.retire_if([&](int i) { return member(i)->is_idle(); });
  for (const int id : lane.commit_extras) {
    const int i = rt.local_of(id);
    if (!lane.sched.active(i) && !member(i)->is_idle()) {
      lane.sched.activate(i);
    }
  }
  lane.commit_extras.clear();
  detail::tl_parallel_ctx = nullptr;
}

void Engine::run_slot(ParallelRuntime& rt, int slot, LanePhase phase,
                      Cycle now) {
  std::exception_ptr& error =
      rt.worker_errors_[static_cast<std::size_t>(slot)];
  if (error != nullptr) return;
  try {
    const int slots = static_cast<int>(rt.worker_errors_.size());
    for (int lane = slot; lane < rt.num_partitions(); lane += slots) {
      (this->*phase)(rt, lane, now);
    }
  } catch (...) {
    error = std::current_exception();
    rt.failed_.store(true, std::memory_order_relaxed);
  }
}

void Engine::parallel_worker(ParallelRuntime* rt, int slot) {
  for (;;) {
    rt->barrier_.arrive_and_wait();  // A: command published
    if (rt->command_.load(std::memory_order_relaxed) ==
        ParallelRuntime::Command::kExit) {
      rt->barrier_.arrive_and_wait();  // exit acknowledgement
      return;
    }
    const Cycle now = rt->step_now_.load(std::memory_order_relaxed);
    run_slot(*rt, slot, &Engine::run_lane_front, now);
    rt->barrier_.arrive_and_wait();  // B
    run_slot(*rt, slot, &Engine::run_lane_wave2, now);
    rt->barrier_.arrive_and_wait();  // C (serial phase runs on coordinator)
    rt->barrier_.arrive_and_wait();  // D
    run_slot(*rt, slot, &Engine::finish_lane, now);
    rt->barrier_.arrive_and_wait();  // E: cycle complete
  }
}

namespace {
/// Rethrows the first captured error (coordinator first, then slot order).
void rethrow_runtime_error(std::exception_ptr& coord,
                           std::vector<std::exception_ptr>& workers) {
  if (coord != nullptr) {
    std::exception_ptr error = coord;
    coord = nullptr;
    std::rethrow_exception(error);
  }
  for (std::exception_ptr& worker : workers) {
    if (worker != nullptr) {
      std::exception_ptr error = worker;
      worker = nullptr;
      std::rethrow_exception(error);
    }
  }
}
}  // namespace

void Engine::parallel_step() {
  ParallelRuntime& rt = *runtime_;
  rt.command_.store(ParallelRuntime::Command::kStep,
                    std::memory_order_relaxed);
  rt.step_now_.store(now_, std::memory_order_relaxed);
  stepping_ = true;
  // The coordinator is worker slot 0: it evaluates that slot's lanes in
  // every parallel phase instead of idling at the barriers.
  rt.barrier_.arrive_and_wait();  // A — everyone: activate + wave 1
  run_slot(rt, 0, &Engine::run_lane_front, now_);
  rt.barrier_.arrive_and_wait();  // B — everyone: wave 2
  run_slot(rt, 0, &Engine::run_lane_wave2, now_);
  rt.barrier_.arrive_and_wait();  // C — serial window is now exclusive
  if (rt.coordinator_error_ == nullptr) {
    try {
      run_lane_front(rt, rt.serial_lane(), now_);
    } catch (...) {
      rt.coordinator_error_ = std::current_exception();
      rt.failed_.store(true, std::memory_order_relaxed);
    }
  }
  rt.barrier_.arrive_and_wait();  // D — everyone: merge + commit + retire
  run_slot(rt, 0, &Engine::finish_lane, now_);
  if (rt.coordinator_error_ == nullptr) {
    try {
      finish_lane(rt, rt.serial_lane(), now_);
    } catch (...) {
      rt.coordinator_error_ = std::current_exception();
      rt.failed_.store(true, std::memory_order_relaxed);
    }
  }
  rt.barrier_.arrive_and_wait();  // E — cycle complete; workers park at A
  stepping_ = false;
  ++stats_.cycles_stepped;
  ++now_;
  if (rt.failed_.load(std::memory_order_relaxed)) {
    rt.failed_.store(false, std::memory_order_relaxed);
    rethrow_runtime_error(rt.coordinator_error_, rt.worker_errors_);
  }
}

bool Engine::parallel_globally_idle() const {
  for (const ParallelLane& lane : runtime_->lanes_) {
    if (lane.sched.any_active() || lane.sched.next_wake(now_) <= now_) {
      return false;
    }
  }
  return true;
}

Cycle Engine::parallel_next_wake() const {
  Cycle next = kNeverCycle;
  for (const ParallelLane& lane : runtime_->lanes_) {
    next = std::min(next, lane.sched.next_wake(now_));
  }
  return next;
}

}  // namespace ownsim
