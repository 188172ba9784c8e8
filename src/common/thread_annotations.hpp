// Capability-based thread-safety annotations + annotated mutex wrappers.
//
// Clang's `-Wthread-safety` analysis proves lock discipline at compile time:
// a field marked OWNSIM_GUARDED_BY(mu_) may only be touched while `mu_` is
// held, a function marked OWNSIM_REQUIRES(mu_) may only be called with `mu_`
// held, and every acquire must be matched by a release on all paths. The
// repo's concurrent code (parallel_for, metrics sweeps, the benchmark
// harness's point clock) carries these annotations, and the clang CI
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
#pragma once

#include <mutex>

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
/// Function may only be called while holding the listed capabilities.
#define OWNSIM_REQUIRES(...) \
  OWNSIM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the listed capabilities (held on return).
#define OWNSIM_ACQUIRE(...) \
  OWNSIM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the listed capabilities.
#define OWNSIM_RELEASE(...) \
  OWNSIM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

namespace ownsim {

/// std::mutex annotated as a capability, locked only through MutexLock —
/// the analysis checks RAII scopes for free.
class OWNSIM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII scoped acquire of a Mutex.
class OWNSIM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) OWNSIM_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() OWNSIM_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  std::lock_guard<std::mutex> lock_;
};

}  // namespace ownsim
