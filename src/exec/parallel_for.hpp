// The one data-parallel primitive: the evaluation grid's points (sweep load
// points, bench grid cells, design-space configurations) are independent
// simulations, each on its own Network.
//
// `parallel_for(threads, n, fn)` runs fn(0..n-1) with dynamic (atomic-counter)
// scheduling on min(threads, n) threads: it starts min(threads, n) - 1 helper
// std::jthreads for the call, the calling thread takes part, and every helper
// is joined before it returns. Calls share nothing, so a body may itself
// call parallel_for. `parallel_map` additionally collects results in index
// order.
//
// Iterations must be independent: writes to distinct indices of a caller
// vector are fine, shared mutable state is the caller's problem.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace ownsim::exec {

/// std::thread::hardware_concurrency clamped to >= 1.
inline unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Thread count for tools that take no explicit thread option: the
/// `OWNSIM_THREADS` environment variable when set (clamped to >= 1),
/// otherwise `hardware_threads()`.
inline unsigned default_threads() {
  if (const char* env = std::getenv("OWNSIM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed >= 1 ? static_cast<unsigned>(parsed) : 1;
  }
  return hardware_threads();
}

/// Calls fn(i) for each i in [0, n) on up to `threads` threads (0 counts as
/// 1). The first exception thrown by `fn` stops issuing new iterations and
/// is rethrown here once every thread has settled.
template <typename Fn>
void parallel_for(unsigned threads, std::size_t n, Fn&& fn) {
  if (n == 0) return;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  Mutex error_mu;

  const auto body = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  {
    const std::size_t participants =
        std::min<std::size_t>(std::max(1u, threads), n);
    std::vector<std::jthread> helpers;  // joined at scope exit
    helpers.reserve(participants - 1);
    for (std::size_t h = 1; h < participants; ++h) helpers.emplace_back(body);
    body();
  }
  if (error) std::rethrow_exception(error);
}

/// Maps fn over [0, n) on up to `threads` threads and returns the results
/// in index order; rethrows `fn`'s first exception.
template <typename Fn>
auto parallel_map(unsigned threads, std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  std::vector<std::optional<std::invoke_result_t<Fn&, std::size_t>>> slots(n);
  parallel_for(threads, n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<std::invoke_result_t<Fn&, std::size_t>> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace ownsim::exec
