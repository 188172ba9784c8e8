// Capability-based thread-safety annotations + annotated mutex wrappers.
//
// Clang's `-Wthread-safety` analysis proves lock discipline at compile time:
// a field marked OWNSIM_GUARDED_BY(mu_) may only be touched while `mu_` is
// held, a function marked OWNSIM_REQUIRES(mu_) may only be called with `mu_`
// held, and every acquire must be matched by a release on all paths. The
// repo's concurrent subsystems (exec pool, metrics sweeps, the trace writer,
// shared media, the Log sink) carry these annotations, and the clang CI
// legs compile with `-Wthread-safety -Wthread-safety-beta` escalated to
// errors — a lock violation is a build break, not a latent race (DESIGN.md
// §5h).
//
// GCC (the default local toolchain) does not implement the analysis; the
// macros expand to nothing there and the wrappers cost exactly what
// std::mutex / std::lock_guard cost. Semantics are identical either way —
// the annotations are assertions about the code, never behavior.
//
// libstdc++'s std::mutex is not capability-annotated, so the analysis cannot
// see through std::lock_guard<std::mutex>. First-party concurrent code uses
// the annotated wrappers below instead:
//
//   ownsim::Mutex      — a capability; declare fields OWNSIM_GUARDED_BY(mu_)
//   ownsim::MutexLock  — RAII scoped acquire (the analysis tracks its scope)
//   ownsim::CondVar    — condition variable waiting on a MutexLock; waits
//                        keep the capability held from the caller's view
//                        (the transient unlock inside wait() re-establishes
//                        the lock before returning, so the post-condition
//                        the analysis assumes is the one that holds)
//
// Wait loops are written explicitly so guarded reads stay inside annotated
// scopes the analysis can check:
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.wait(lock);    // not: cv_.wait(lock, [&]{...})
#pragma once

#include <condition_variable>
#include <mutex>
#include <utility>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define OWNSIM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef OWNSIM_THREAD_ANNOTATION
#define OWNSIM_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

/// Marks a type as a lockable capability (named in diagnostics).
#define OWNSIM_CAPABILITY(x) OWNSIM_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define OWNSIM_SCOPED_CAPABILITY OWNSIM_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be read or written while holding `x`.
#define OWNSIM_GUARDED_BY(x) OWNSIM_THREAD_ANNOTATION(guarded_by(x))
/// Pointee (not the pointer) is guarded by `x`.
#define OWNSIM_PT_GUARDED_BY(x) OWNSIM_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function may only be called while holding the listed capabilities.
#define OWNSIM_REQUIRES(...) \
  OWNSIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the listed capabilities (held on return).
#define OWNSIM_ACQUIRE(...) \
  OWNSIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the listed capabilities.
#define OWNSIM_RELEASE(...) \
  OWNSIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability when it returns `value`.
#define OWNSIM_TRY_ACQUIRE(value, ...) \
  OWNSIM_THREAD_ANNOTATION(try_acquire_capability(value, __VA_ARGS__))
/// Function must NOT be called while holding the listed capabilities
/// (deadlock prevention; e.g. callback dispatch that re-enters the lock).
#define OWNSIM_EXCLUDES(...) OWNSIM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the capability guarding its result.
#define OWNSIM_RETURN_CAPABILITY(x) OWNSIM_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: function body is exempt from the analysis. Every use needs
/// a comment saying why the analysis cannot express the invariant.
#define OWNSIM_NO_THREAD_SAFETY_ANALYSIS \
  OWNSIM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ownsim {

class CondVar;

/// std::mutex annotated as a capability. Prefer MutexLock over manual
/// lock()/unlock() pairs — the analysis checks RAII scopes for free.
class OWNSIM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() OWNSIM_ACQUIRE() { mu_.lock(); }
  void unlock() OWNSIM_RELEASE() { mu_.unlock(); }
  bool try_lock() OWNSIM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII scoped acquire of a Mutex (std::unique_lock underneath, so CondVar
/// can wait on it).
class OWNSIM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) OWNSIM_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() OWNSIM_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable for Mutex/MutexLock. `wait` atomically releases and
/// re-acquires the lock internally; from the annotated caller's view the
/// capability stays held across the call (which is the state on return).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ownsim
