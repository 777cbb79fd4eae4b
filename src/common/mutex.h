#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace gnn4tdl {

/// Annotated mutex: a thin wrapper over std::mutex carrying the Clang
/// `capability` attribute, so GNN4TDL_GUARDED_BY / GNN4TDL_REQUIRES
/// annotations referencing it type-check under `-Wthread-safety`
/// (libstdc++'s std::mutex carries no capability annotations, which is why
/// the project uses this type instead — the gnn4tdl_lint lock pass bans raw
/// std::mutex members outside this header).
///
/// Method names satisfy BasicLockable, so std::condition_variable_any can
/// wait on a Mutex directly. Project code never calls lock()/unlock() by
/// hand: acquisition goes through MutexLock so every critical section is
/// scoped and exception-safe.
class GNN4TDL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GNN4TDL_ACQUIRE() { mu_.lock(); }
  void unlock() GNN4TDL_RELEASE() { mu_.unlock(); }
  bool try_lock() GNN4TDL_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII critical section over a Mutex (scoped capability): acquires on
/// construction, releases on destruction. The annotated replacement for
/// std::lock_guard — under clang, field accesses guarded by the mutex are
/// only accepted while one of these is alive in the enclosing scope.
class GNN4TDL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) GNN4TDL_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() GNN4TDL_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// The held mutex; CondVar waits release and reacquire it.
  Mutex* mutex() { return mu_; }

 private:
  Mutex* const mu_;
};

/// Condition variable paired with Mutex. Waits take the active MutexLock:
/// the underlying condition_variable_any releases the mutex while blocked
/// and reacquires it before returning, so from the caller's (and the static
/// analyzer's) point of view the capability is held continuously across the
/// wait. No predicate overloads on purpose — callers write explicit
///   while (!condition) cv.Wait(lock);
/// loops, which keeps guarded reads inside a function the analysis can see
/// (a predicate lambda would be a separate, unannotated function).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken); reacquires before return.
  void Wait(MutexLock& lock) { cv_.wait(*lock.mutex()); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace gnn4tdl
