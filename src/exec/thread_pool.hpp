// Fixed-size worker pool with a FIFO task queue and future-based results.
//
// The simulator's outer loops (load sweeps, design-space grids, bench
// harness figures) are embarrassingly parallel: every job builds its own
// Network and shares nothing mutable. The pool is therefore deliberately
// simple — N workers, one locked queue, `submit` returning a `std::future`
// that carries the task's value or exception. Determinism is the caller's
// contract: jobs must not communicate except through their return values.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.hpp"

namespace ownsim::exec {

/// std::thread::hardware_concurrency clamped to >= 1.
unsigned hardware_threads();

/// Worker count for tools that take no explicit thread option: the
/// `OWNSIM_THREADS` environment variable when set (clamped to >= 1),
/// otherwise `hardware_threads()`.
unsigned default_threads();

class ThreadPool {
 public:
  /// Starts `threads` workers (clamped to >= 1).
  explicit ThreadPool(unsigned threads = default_threads());

  /// Drains nothing: pending tasks still in the queue are executed before
  /// the workers exit (shutdown is graceful, not abortive).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues `fn` and returns the future for its result. An exception
  /// thrown by `fn` is captured and rethrown from `future.get()`.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      MutexLock lock(mu_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool: submit after shutdown");
      }
      queue_.push([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  Mutex mu_;
  CondVar cv_;
  std::queue<std::function<void()>> queue_ OWNSIM_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  ///< written only in ctor/dtor
  bool stopping_ OWNSIM_GUARDED_BY(mu_) = false;
};

}  // namespace ownsim::exec
