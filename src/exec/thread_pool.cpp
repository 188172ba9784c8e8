#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace ownsim::exec {

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned default_threads() {
  if (const char* env = std::getenv("OWNSIM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<unsigned>(parsed);
    return 1;
  }
  return hardware_threads();
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = std::max(1u, threads);
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and fully drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

}  // namespace ownsim::exec
