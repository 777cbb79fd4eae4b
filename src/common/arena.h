#pragma once

// Slab arena for tape intermediates (docs/MEMORY.md is the contract).
//
// Training allocates one Matrix per tape op per epoch; glibc malloc handles
// the churn but every buffer is touched twice (zero-fill + compute) and the
// allocator metadata walk shows up in the aggregation-bound profile. The
// arena replaces that with a pow2 size-class freelist: the first epoch is
// the dry-run that sizes the pool (every request is a miss that grows it),
// and steady-state epochs recycle the same slabs with zero new allocations.
//
// Ownership model: Arena owns an ArenaState; every DoubleBuffer checked out
// of it holds a shared_ptr to that state. Buffers that escape the arena's
// lifetime (model parameters updated under an ArenaScope, snapshots) stay
// valid — the state, and with it every slab, lives until the last escapee
// is destroyed. Returning a buffer pushes its slab back on the freelist; it
// is recycled dirty (the next checkout zero-fills or overwrites, or, for
// DoubleBuffer::Uninitialized, leaves the writing to its caller).
//
// Scoping: ArenaScope installs an arena as the calling thread's allocation
// target; Matrix construction on that thread draws from it. Pool worker
// threads never see a scope (kernels allocate outputs on the calling thread
// before fanning out), so they fall back to the heap path. The state itself
// is mutex-guarded, so escaped buffers may be destroyed from any thread.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace gnn4tdl {

namespace arena_internal {
class ArenaState;
}  // namespace arena_internal

/// Point-in-time counters for one Arena (see docs/MEMORY.md for how these
/// map to the arena.* gauges the trainer exports).
struct ArenaStats {
  uint64_t alloc_calls = 0;     ///< buffers checked out of this arena
  uint64_t pool_hits = 0;       ///< checkouts served from the freelist
  size_t live_bytes = 0;        ///< bytes currently checked out
  size_t high_water_bytes = 0;  ///< max live_bytes over the arena's life
};

/// A slab pool. Construct once per training run and install with ArenaScope;
/// destroying the Arena releases the slabs as soon as no escaped buffer
/// references them.
class Arena {
 public:
  Arena();
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ArenaStats stats() const;

 private:
  friend class ArenaScope;
  std::shared_ptr<arena_internal::ArenaState> state_;
};

/// RAII scope: while alive, DoubleBuffer allocations on the constructing
/// thread draw from `arena`. Scopes nest; the previous target is restored on
/// destruction. Must be destroyed on the thread that constructed it.
class ArenaScope {
 public:
  explicit ArenaScope(Arena* arena);
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// True if the calling thread currently has an arena installed.
  static bool Active();

 private:
  std::shared_ptr<arena_internal::ArenaState> prev_;
};

/// Contiguous buffer of doubles: Matrix's storage. Drawn from the calling
/// thread's scoped arena when one is installed, from the heap otherwise.
/// Holding the arena state by shared_ptr makes escape safe (see file
/// comment). Interface mirrors the std::vector<double> it replaced.
class DoubleBuffer {
 public:
  DoubleBuffer() = default;
  /// n doubles, zero-filled.
  explicit DoubleBuffer(size_t n);
  /// n doubles, filled with `value`.
  DoubleBuffer(size_t n, double value);
  /// Copies `src` (used by the Matrix(rows, cols, vector) constructor).
  explicit DoubleBuffer(const std::vector<double>& src);
  /// n doubles, left unwritten: a recycled slab keeps its old contents.
  /// Only for outputs whose every element is written before it is read.
  static DoubleBuffer Uninitialized(size_t n);

  DoubleBuffer(const DoubleBuffer& other);
  DoubleBuffer& operator=(const DoubleBuffer& other);
  DoubleBuffer(DoubleBuffer&& other) noexcept;
  DoubleBuffer& operator=(DoubleBuffer&& other) noexcept;
  ~DoubleBuffer();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  double* data() { return ptr_; }
  const double* data() const { return ptr_; }
  double* begin() { return ptr_; }
  double* end() { return ptr_ + size_; }
  const double* begin() const { return ptr_; }
  const double* end() const { return ptr_ + size_; }
  double& operator[](size_t i) { return ptr_[i]; }
  const double& operator[](size_t i) const { return ptr_[i]; }

 private:
  void Acquire(size_t n);  // sets ptr_/cap_/owner_ or heap_; size_ = n
  void Release();          // returns the slab; leaves *this empty

  double* ptr_ = nullptr;
  size_t size_ = 0;
  size_t cap_ = 0;  // doubles actually reserved (pow2 size class)
  std::shared_ptr<arena_internal::ArenaState> owner_;  // null => heap buffer
  std::unique_ptr<double[]> heap_;                     // set iff owner_ null
};

}  // namespace gnn4tdl
