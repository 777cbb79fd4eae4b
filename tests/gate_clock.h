// Test-only clock that parks every other thread at a gate: the way a test
// holds the serving worker mid-batch without an engine option for it.
//
// The thread that constructs the GateClock (the test's own thread) always
// reads straight through to the base clock. Any other thread that reads it
// while the gate is closed blocks until the test calls Open(). The serving
// worker's first clock read comes right after it dequeues a batch, so a test
// can submit one row, wait until parked() reports the worker, queue more
// rows while it is held, and then Open() to let it score.
#pragma once

#include <cstddef>
#include <cstdint>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"

namespace gnn4tdl::testing {

class GateClock : public obs::Clock {
 public:
  /// Reads pass to `base`, which must outlive this clock. The gate starts
  /// closed.
  explicit GateClock(const obs::Clock* base)
      : base_(base), owner_(std::this_thread::get_id()) {}

  int64_t NowNanos() const override {
    Pass();
    return base_->NowNanos();
  }
  int64_t ThreadCpuNanos() const override {
    Pass();
    return base_->ThreadCpuNanos();
  }

  /// Releases every parked reader; later reads pass straight through.
  void Open() {
    {
      MutexLock lock(&mu_);
      closed_ = false;
    }
    cv_.NotifyAll();
  }

  /// Readers currently blocked at the gate.
  size_t parked() const {
    MutexLock lock(&mu_);
    return parked_;
  }

 private:
  void Pass() const {
    if (std::this_thread::get_id() == owner_) return;
    MutexLock lock(&mu_);
    ++parked_;
    while (closed_) cv_.Wait(lock);
    --parked_;
  }

  const obs::Clock* const base_;
  const std::thread::id owner_;
  mutable Mutex mu_;
  mutable CondVar cv_;
  bool closed_ GNN4TDL_GUARDED_BY(mu_) = true;
  mutable size_t parked_ GNN4TDL_GUARDED_BY(mu_) = 0;
};

}  // namespace gnn4tdl::testing
