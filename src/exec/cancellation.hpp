// Cooperative cancellation: a source flips a shared flag, tokens observe it.
//
// Cancellation is advisory — a running job keeps its partial state private
// and simply stops at its next check point, so cancelling never corrupts
// shared results. A default-constructed token is never cancelled (the cheap
// "no cancellation" case needs no allocation).
#pragma once

#include <atomic>
#include <memory>
#include <utility>

namespace ownsim::exec {

class CancellationSource;

class CancellationToken {
 public:
  /// A token that can never be cancelled.
  CancellationToken() = default;

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;  ///< null: never cancelled
};

class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Idempotent; safe from any thread.
  void request_cancel() { flag_->store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return flag_->load(std::memory_order_acquire);
  }

  CancellationToken token() const { return CancellationToken(flag_); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace ownsim::exec
