// Scheduler state of the activity kernel (DESIGN.md §5e): the active set
// (what runs this cycle) and the wake ring (what runs later). Both are
// bitsets over component ids. Each cycle starts by reading the active set
// out in ascending id order, which is registration order, so a sweep over
// any subset keeps lockstep's relative eval order without a sort.
//
// The ring holds one bitset per cycle for the next kHorizon cycles, plus a
// bitmask of the non-empty slots, so the next event is one rotate and one
// count-trailing-zeros away; wakes further out wait in a small overflow
// heap. A set bit is its own dedup: waking an active or already woken index
// changes nothing. Not thread-safe.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace ownsim {

class Scheduler {
 public:
  /// Wakes fewer than this many cycles ahead go to the ring, later ones to
  /// the overflow heap. One slot per bit of the occupancy mask.
  static constexpr Cycle kHorizon = 64;

  /// Grows the index space to [0, n); new indices are dormant.
  void resize(std::size_t n) {
    const std::size_t words = (n + 63) / 64;
    if (words == active_.size()) return;
    active_.resize(words);
    for (std::vector<std::uint64_t>& slot : ring_) slot.resize(words);
  }

  bool active(int i) const { return (active_[word(i)] & bit(i)) != 0; }
  void activate(int i) { active_[word(i)] |= bit(i); }
  bool any_active() const {
    return std::any_of(active_.begin(), active_.end(),
                       [](std::uint64_t w) { return w != 0; });
  }
  std::size_t num_active() const {
    std::size_t n = 0;
    for (const std::uint64_t w : active_) n += std::popcount(w);
    return n;
  }

  /// Activates every index whose wake is due at `now`, then returns the
  /// cycle's sweep: every active index, ascending. The list stays valid
  /// until the next call; eval, commit and `retire_if` all walk it.
  const std::vector<int>& start_cycle(Cycle now) {
    const std::uint64_t mask = std::uint64_t{1} << slot(now);
    if ((occupied_ & mask) != 0) {
      std::vector<std::uint64_t>& due = ring_[slot(now)];
      for (std::size_t w = 0; w < due.size(); ++w) {
        active_[w] |= due[w];
        due[w] = 0;
      }
      occupied_ &= ~mask;
    }
    for (; !overflow_.empty() && overflow_.top().first <= now;
         overflow_.pop()) {
      activate(overflow_.top().second);
    }
    sweep_.clear();
    for_each_bit(active_, [this](int i) { sweep_.push_back(i); });
    return sweep_;
  }

  /// Deactivates every index of the current sweep for which idle(i) holds.
  template <typename P>
  void retire_if(P&& idle) {
    for (const int i : sweep_) {
      if (idle(i)) active_[word(i)] &= ~bit(i);
    }
  }

  /// Wakes index i at cycle `at`. `now` is the earliest cycle whose wakes
  /// are not yet activated, and at >= now.
  void post(int i, Cycle at, Cycle now) {
    if (at - now >= kHorizon) {
      overflow_.push({at, i});
      return;
    }
    ring_[slot(at)][word(i)] |= bit(i);
    occupied_ |= std::uint64_t{1} << slot(at);
  }

  /// Earliest pending wake (>= now, as for `post`), or kNeverCycle.
  Cycle next_wake(Cycle now) const {
    Cycle next = overflow_.empty() ? kNeverCycle : overflow_.top().first;
    if (occupied_ != 0) {
      const int ahead =
          std::countr_zero(std::rotr(occupied_, static_cast<int>(slot(now))));
      next = std::min(next, now + ahead);
    }
    return next;
  }

 private:
  template <typename F>
  static void for_each_bit(const std::vector<std::uint64_t>& words, F&& f) {
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        f(static_cast<int>(w * 64) + std::countr_zero(bits));
      }
    }
  }
  static std::size_t word(int i) { return static_cast<std::size_t>(i) / 64; }
  static std::uint64_t bit(int i) { return std::uint64_t{1} << (i % 64); }
  static std::size_t slot(Cycle at) {
    return static_cast<std::size_t>(at % kHorizon);
  }

  std::vector<std::uint64_t> active_;
  std::vector<int> sweep_;  ///< active indices at the start of this cycle
  std::array<std::vector<std::uint64_t>, kHorizon> ring_;  ///< by at % kHorizon
  std::uint64_t occupied_ = 0;  ///< bit s: ring_[s] is non-empty
  using Wake = std::pair<Cycle, int>;  // (cycle, index)
  std::priority_queue<Wake, std::vector<Wake>, std::greater<Wake>> overflow_;
};

}  // namespace ownsim
