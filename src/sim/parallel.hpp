// Partitioned parallel kernel support (DESIGN.md §5i).
//
// The parallel kernel (KernelMode::kParallel) splits the component registry
// into partitions and evaluates them on worker threads in lockstep epochs.
// Every cross-component pipe in this codebase has latency >= 1 — the same
// property the §5e no-reorder proof rests on — so the conservative PDES
// lookahead is one cycle and an epoch is one cycle split into waves:
//
//   wave 1  producers: NIC + routers       (parallel across partitions)
//   wave 2  pipes: media + channels        (parallel across partitions)
//   serial  everything past the plan: injector, fault campaign, watchdog,
//           test components                (coordinator thread, id order)
//   commit  merge boundary staging buffers, commit, retire/promote
//                                          (parallel across partitions)
//
// Components in the same wave never touch each other's same-cycle state
// (each endpoint half of a channel/medium belongs to exactly one wave-1
// evaluator; see §5i for the pair-by-pair argument), and the wave order
// equals registration-id order, so per-cycle behaviour is bit-identical to
// the sequential activity kernel for ANY partition count and thread count.
//
// Cross-partition wakes and commit requests raised during a wave are not
// applied directly — they are appended to per-edge staging buffers
// (`wake_out` / `commit_out`, the "boundary exchange") and merged into the
// owning partition's scheduler/extras at the commit phase, exactly where the
// sequential kernel would have observed them.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "exec/thread_pool.hpp"
#include "sim/scheduler.hpp"

namespace ownsim {

class Clocked;
class Engine;

/// Static assignment of engine component ids to partitions and waves.
/// Components added to the engine after `configure_parallel` (ids past
/// `partition.size()`) fall into the serial lane automatically — that is
/// how the driver extras (injector, campaign, watchdog) keep their exact
/// sequential schedule.
struct ParallelPlan {
  std::vector<int> partition;      ///< per component id, in [0, num_partitions)
  std::vector<std::uint8_t> wave;  ///< per component id: 1 (producer) or 2 (pipe)
  int num_partitions = 0;

  /// Structural check; throws std::invalid_argument on violations.
  void validate(std::size_t num_components) const;
};

/// Reusable sense-reversing barrier separating the epoch waves. Waiters spin
/// briefly (a wave on a busy network completes in microseconds), then fall
/// back to the condition variable so parked workers cost nothing between
/// runs. The generation counter is bumped under `mu_` so a sleeper can never
/// miss the wakeup between its re-check and `cv_.wait`.
class PhaseBarrier {
 public:
  explicit PhaseBarrier(int parties) : parties_(parties) {}

  PhaseBarrier(const PhaseBarrier&) = delete;
  PhaseBarrier& operator=(const PhaseBarrier&) = delete;

  void arrive_and_wait() {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      count_.store(0, std::memory_order_relaxed);
      {
        MutexLock lock(mu_);
        generation_.fetch_add(1, std::memory_order_release);
      }
      cv_.notify_all();
      return;
    }
    for (int spin = 0; spin < kSpinLimit; ++spin) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
      if ((spin & 63) == 63) std::this_thread::yield();
    }
    MutexLock lock(mu_);
    while (generation_.load(std::memory_order_acquire) == gen) cv_.wait(lock);
  }

 private:
  static constexpr int kSpinLimit = 1 << 14;

  const int parties_;
  std::atomic<int> count_{0};
  std::atomic<std::uint64_t> generation_{0};
  Mutex mu_;
  CondVar cv_;
};

/// Per-partition scheduler state plus the boundary staging buffers. Lane
/// index `num_partitions` is the serial lane (coordinator-owned). Outside
/// the phases below, a lane is touched only by the coordinator thread.
struct ParallelLane {
  using WakeEntry = std::pair<Cycle, int>;  // (cycle, component id)

  /// Component per local index: the wave-1 members in id order, then the
  /// wave-2 members in id order, so each wave is one ascending sweep.
  std::vector<Clocked*> members;
  std::size_t wave2_begin = 0;  ///< first wave-2 local index
  std::size_t sweep_wave2 = 0;  ///< first wave-2 entry of this cycle's sweep
  /// Active set + wakes over local indices. Only this lane's evaluator
  /// touches it, so lanes on different threads never share a bitset word.
  Scheduler sched;
  std::vector<int> commit_extras;  ///< dormant ids to commit this cycle
  std::int64_t evals = 0;          ///< folded into Engine::Stats on demand
  std::int64_t wakes = 0;

  // Boundary exchange: wakes/commit-requests this lane raised for other
  // lanes during the eval waves, merged by the OWNING lane at the commit
  // phase (writer: this lane's evaluator during waves; reader: the
  // destination lane's evaluator at commit — never concurrently, the wave
  // barriers order the two).
  std::vector<std::vector<WakeEntry>> wake_out;  ///< indexed by dest lane
  std::vector<std::vector<int>> commit_out;      ///< indexed by dest lane
};

/// Thread-local evaluation context installed while a lane's components run.
/// Clocked::request_wake / request_commit route through it so boundary
/// traffic lands in the staging buffers instead of another lane's scheduler.
struct ParallelEvalCtx {
  Engine* engine = nullptr;
  ParallelLane* lane = nullptr;
  int lane_index = -1;
  Cycle now = 0;
};

namespace detail {
/// Active evaluation context of the calling thread (null outside the
/// parallel phases). Defined in engine_parallel.cpp.
extern thread_local ParallelEvalCtx* tl_parallel_ctx;
}  // namespace detail

/// Worker-thread substrate for one configured engine: the lanes, the phase
/// barrier and a dedicated thread pool whose workers live for the runtime's
/// lifetime (commands arrive through the barrier; `kExit` from the dtor).
/// With `threads` slots the coordinator runs slot 0 and the pool the rest.
/// The pool is private to the engine so a parallel run never deadlocks
/// against sweep-level pools using the same `exec::ThreadPool` class.
class ParallelRuntime {
 public:
  ParallelRuntime(Engine* engine, ParallelPlan plan, unsigned threads);
  ~ParallelRuntime();

  ParallelRuntime(const ParallelRuntime&) = delete;
  ParallelRuntime& operator=(const ParallelRuntime&) = delete;

  int num_partitions() const { return plan_.num_partitions; }
  int serial_lane() const { return plan_.num_partitions; }
  int num_lanes() const { return plan_.num_partitions + 1; }
  /// Worker slots, the coordinator (slot 0) included.
  unsigned threads() const {
    return static_cast<unsigned>(worker_errors_.size());
  }

  int lane_of(int id) const {
    const auto index = static_cast<std::size_t>(id);
    return index < plan_.partition.size() ? plan_.partition[index]
                                          : serial_lane();
  }
  int wave_of(int id) const {
    const auto index = static_cast<std::size_t>(id);
    return index < plan_.wave.size() ? plan_.wave[index] : 1;
  }
  ParallelLane& lane(int id) {
    return lanes_[static_cast<std::size_t>(lane_of(id))];
  }
  int local_of(int id) const { return local_[static_cast<std::size_t>(id)]; }

 private:
  friend class Engine;

  enum class Command : int { kStep, kExit };

  Engine* engine_;
  ParallelPlan plan_;
  std::vector<ParallelLane> lanes_;  ///< size num_lanes(); serial lane last
  std::vector<int> local_;  ///< per component id: its index in its lane
  /// First exception per worker slot; written by the owning slot during a
  /// phase, read by the coordinator after the end-of-cycle barrier.
  std::vector<std::exception_ptr> worker_errors_;
  std::exception_ptr coordinator_error_;
  std::atomic<Command> command_{Command::kStep};
  std::atomic<Cycle> step_now_{0};
  std::atomic<bool> failed_{false};
  PhaseBarrier barrier_;  ///< parties: every slot, the coordinator included
  std::vector<std::future<void>> workers_;  ///< slots 1..threads-1
  /// Runs slots 1..threads-1; absent with one slot. Last member: destroyed
  /// (joined) first.
  std::optional<exec::ThreadPool> pool_;
};

}  // namespace ownsim
