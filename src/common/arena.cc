#include "common/arena.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace gnn4tdl {
namespace arena_internal {

namespace {

// Smallest slab: 64 doubles (512 B). Anything below rounds up — the tape's
// scalars and row vectors all share one class, which keeps the freelist
// fan-out small.
constexpr size_t kMinSlabDoubles = 64;
constexpr size_t kNumClasses = 64;

size_t ClassOf(size_t n) {
  const size_t cap = std::bit_ceil(std::max(n, kMinSlabDoubles));
  return static_cast<size_t>(std::countr_zero(cap));
}

}  // namespace

/// The shared pool: slabs keyed by pow2 size class. Owned jointly by the
/// Arena and every checked-out DoubleBuffer, so slabs outlive the Arena if
/// buffers escape it. All methods lock; contention is negligible because the
/// tape allocates from one thread.
class ArenaState {
 public:
  /// Returns a slab of >= n doubles (contents undefined) and its capacity.
  std::pair<double*, size_t> Acquire(size_t n) {
    const size_t cls = ClassOf(n);
    const size_t cap = size_t{1} << cls;
    MutexLock lock(&mu_);
    ++stats_.alloc_calls;
    stats_.live_bytes += cap * sizeof(double);
    stats_.high_water_bytes =
        std::max(stats_.high_water_bytes, stats_.live_bytes);
    if (!free_[cls].empty()) {
      ++stats_.pool_hits;
      double* p = free_[cls].back().release();
      free_[cls].pop_back();
      return {p, cap};
    }
    return {std::make_unique_for_overwrite<double[]>(cap).release(), cap};
  }

  /// Takes the slab back onto its freelist; it is reused dirty.
  void Release(double* p, size_t cap) {
    const size_t cls = static_cast<size_t>(std::countr_zero(cap));
    MutexLock lock(&mu_);
    GNN4TDL_CHECK_GE(stats_.live_bytes, cap * sizeof(double));
    stats_.live_bytes -= cap * sizeof(double);
    free_[cls].emplace_back(p);
  }

  ArenaStats stats() const {
    MutexLock lock(&mu_);
    return stats_;
  }

 private:
  mutable Mutex mu_;
  std::vector<std::unique_ptr<double[]>> free_[kNumClasses]
      GNN4TDL_GUARDED_BY(mu_);
  ArenaStats stats_ GNN4TDL_GUARDED_BY(mu_);
};

namespace {

// The calling thread's allocation target. shared_ptr (not raw) so a scope
// that outlives its Arena — a bug, but one the type system can't rule out —
// degrades to keeping the state alive instead of dangling.
thread_local std::shared_ptr<ArenaState> t_current;

}  // namespace

}  // namespace arena_internal

using arena_internal::ArenaState;
using arena_internal::t_current;

Arena::Arena() : state_(std::make_shared<ArenaState>()) {}

Arena::~Arena() = default;

ArenaStats Arena::stats() const { return state_->stats(); }

ArenaScope::ArenaScope(Arena* arena) : prev_(std::move(t_current)) {
  GNN4TDL_CHECK(arena != nullptr);
  t_current = arena->state_;
}

ArenaScope::~ArenaScope() { t_current = std::move(prev_); }

bool ArenaScope::Active() { return t_current != nullptr; }

void DoubleBuffer::Acquire(size_t n) {
  size_ = n;
  if (n == 0) return;
  if (t_current) {
    owner_ = t_current;
    auto [p, cap] = owner_->Acquire(n);
    ptr_ = p;
    cap_ = cap;
  } else {
    heap_ = std::make_unique_for_overwrite<double[]>(n);
    ptr_ = heap_.get();
    cap_ = n;
  }
  // Per-span memory attribution: any open TraceSpan on this thread records
  // the delta of this counter, so an epoch or serve-batch span shows what it
  // acquired (arena-pooled and heap alike). One thread-local add.
  obs::AddAllocatedBytesOnThisThread(cap_ * sizeof(double));
}

void DoubleBuffer::Release() {
  if (owner_ != nullptr && ptr_ != nullptr) owner_->Release(ptr_, cap_);
  owner_.reset();
  heap_.reset();
  ptr_ = nullptr;
  size_ = 0;
  cap_ = 0;
}

DoubleBuffer::DoubleBuffer(size_t n) {
  Acquire(n);
  if (ptr_ != nullptr) std::fill(ptr_, ptr_ + size_, 0.0);
}

DoubleBuffer::DoubleBuffer(size_t n, double value) {
  Acquire(n);
  if (ptr_ != nullptr) std::fill(ptr_, ptr_ + size_, value);
}

DoubleBuffer DoubleBuffer::Uninitialized(size_t n) {
  DoubleBuffer buf;
  buf.Acquire(n);
  return buf;
}

DoubleBuffer::DoubleBuffer(const std::vector<double>& src) {
  Acquire(src.size());
  if (ptr_ != nullptr) std::memcpy(ptr_, src.data(), size_ * sizeof(double));
}

DoubleBuffer::DoubleBuffer(const DoubleBuffer& other) {
  Acquire(other.size_);
  if (ptr_ != nullptr)
    std::memcpy(ptr_, other.ptr_, size_ * sizeof(double));
}

DoubleBuffer& DoubleBuffer::operator=(const DoubleBuffer& other) {
  if (this == &other) return *this;
  // Same-size assignment reuses the slab in place; anything else swaps it
  // for a fresh checkout.
  if (size_ != other.size_) {
    Release();
    Acquire(other.size_);
  }
  if (ptr_ != nullptr)
    std::memcpy(ptr_, other.ptr_, size_ * sizeof(double));
  return *this;
}

DoubleBuffer::DoubleBuffer(DoubleBuffer&& other) noexcept
    : ptr_(other.ptr_),
      size_(other.size_),
      cap_(other.cap_),
      owner_(std::move(other.owner_)),
      heap_(std::move(other.heap_)) {
  other.ptr_ = nullptr;
  other.size_ = 0;
  other.cap_ = 0;
}

DoubleBuffer& DoubleBuffer::operator=(DoubleBuffer&& other) noexcept {
  if (this == &other) return *this;
  Release();
  ptr_ = other.ptr_;
  size_ = other.size_;
  cap_ = other.cap_;
  owner_ = std::move(other.owner_);
  heap_ = std::move(other.heap_);
  other.ptr_ = nullptr;
  other.size_ = 0;
  other.cap_ = 0;
  return *this;
}

DoubleBuffer::~DoubleBuffer() { Release(); }

}  // namespace gnn4tdl
