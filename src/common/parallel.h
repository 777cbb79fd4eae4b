#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/trace.h"

namespace gnn4tdl {

/// Half-open index range [begin, end) handed to a ParallelFor body or a
/// reduction chunk.
struct Range {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Thread count requested via the GNN4TDL_THREADS environment variable,
/// falling back to std::thread::hardware_concurrency() when unset. Always at
/// least 1; values are clamped to [1, 256] and unparsable strings fall back
/// to 1 (serial). Read once per call — ThreadPool::Global() samples it only
/// at first use.
size_t ThreadCountFromEnv();

/// Fixed-size thread pool with deterministic chunked dispatch — deliberately
/// no work stealing. A job is a number of chunks; workers (plus the caller,
/// which participates) pull chunk indices from a shared cursor under a mutex.
/// Which thread runs which chunk is scheduling-dependent, but every chunk's
/// work is defined purely by its index, so results never depend on the
/// assignment.
///
/// Threading contract:
///  - Run() executes chunk_fn(0..num_chunks-1) and blocks until all chunks
///    finish. Concurrent Run() calls from different threads are serialized.
///  - With num_threads() == 1 (or a single chunk) everything executes inline
///    on the caller, chunk by chunk — the serial fallback. A single chunk
///    does not wait for another thread's job to finish.
///  - The first exception thrown by a chunk cancels the remaining chunks and
///    is rethrown on the calling thread.
///  - All kernels in tensor/ and nn/ route through the singleton Global()
///    pool, sized by GNN4TDL_THREADS at first use; SetNumThreads() resizes it
///    (tests and the bench sweep only — it must not race with running jobs).
class ThreadPool {
 public:
  /// Process-wide pool shared by every kernel (and the serving engine's
  /// batched forwards). Sized by GNN4TDL_THREADS at first call.
  static ThreadPool& Global();

  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const {
    return num_threads_.load(std::memory_order_relaxed);
  }

  /// Joins all workers and respawns `n - 1` of them (the caller is the n-th
  /// lane). Callable only while no job is running.
  void SetNumThreads(size_t n);

  /// Runs chunk_fn(c) for every c in [0, num_chunks), blocking until done.
  void Run(size_t num_chunks, const std::function<void(size_t)>& chunk_fn);

 private:
  void WorkerLoop();
  void StartWorkers(size_t num_workers) GNN4TDL_REQUIRES(run_mu_);
  void StopWorkers() GNN4TDL_REQUIRES(run_mu_);
  // Grabs the next chunk index of the active job; false when drained.
  bool NextChunk(size_t* chunk, const std::function<void(size_t)>** fn)
      GNN4TDL_EXCLUDES(mu_);
  void FinishChunk() GNN4TDL_EXCLUDES(mu_);
  void RunChunk(size_t chunk, const std::function<void(size_t)>& fn);

  // Serializes multi-chunk Run() callers (and SetNumThreads) so at most one
  // job is in flight; the pool is shared but not reentrant.
  Mutex run_mu_;

  // Guards the job state below.
  mutable Mutex mu_;
  CondVar work_cv_;  // workers: new job or shutdown
  CondVar done_cv_;  // caller: all chunks finished
  // Workers are started/joined only by the ctor/dtor and SetNumThreads, all
  // of which hold run_mu_ for the whole start/stop sequence.
  std::vector<std::thread> workers_ GNN4TDL_GUARDED_BY(run_mu_);
  std::atomic<size_t> num_threads_{1};
  bool shutdown_ GNN4TDL_GUARDED_BY(mu_) = false;

  // Active job state. job_fn_ is non-null only while a job is in flight.
  uint64_t job_generation_ GNN4TDL_GUARDED_BY(mu_) = 0;
  const std::function<void(size_t)>* job_fn_ GNN4TDL_GUARDED_BY(mu_) = nullptr;
  size_t job_num_chunks_ GNN4TDL_GUARDED_BY(mu_) = 0;
  size_t job_next_chunk_ GNN4TDL_GUARDED_BY(mu_) = 0;
  size_t job_pending_chunks_ GNN4TDL_GUARDED_BY(mu_) = 0;
  std::exception_ptr job_error_ GNN4TDL_GUARDED_BY(mu_);
  // Trace span open on the submitting thread when the job started; worker
  // lanes parent their spans under it so the span tree crosses the pool.
  // Written under mu_ before dispatch, stable for the job's duration;
  // RunChunk reads it after NextChunk's mu_ acquisition ordered the write.
  uint64_t job_trace_parent_ = 0;  // lint:unguarded(stable for the job's duration; ordered by NextChunk's mu_ acquisition)
};

/// Deterministic partition of [begin, end) into at most `max_chunks` chunks
/// of at least `grain` indices each (the last chunks may be one index
/// larger). Boundaries depend only on the range, grain, and max_chunks —
/// never on scheduling — which is what makes chunked reductions reproducible;
/// with a constant max_chunks they are the same at every thread count.
std::vector<Range> PartitionRange(size_t begin, size_t end, size_t grain,
                                  size_t max_chunks);

/// Parallel loop: body(chunk_begin, chunk_end) over a deterministic partition
/// of [begin, end) with up to 4 chunks per pool thread (for load balance).
/// The body must only write data disjoint across chunks; under that contract
/// results are bit-exact with serial execution for every thread count.
///
/// Nested ParallelFor (a body that itself calls ParallelFor, on any thread
/// currently inside one) throws std::logic_error — kernels must stay
/// leaf-level. Exceptions thrown by the body propagate to the caller.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body);

/// Chunk cap of the tree reductions (ParallelReduceSum and the segment
/// softmax accumulators). It is a constant rather than the pool size, so a
/// reduction's partition, and with it every bit of its result, depends only
/// on the input size: the same at every thread count.
inline constexpr size_t kReduceMaxChunks = 8;

/// Deterministic parallel sum: chunk_sum(b, e) returns the serial sum of its
/// chunk over PartitionRange(begin, end, grain, kReduceMaxChunks), and the
/// per-chunk partials are combined by a fixed pairwise tree. The result is
/// bit-identical at every thread count; with one chunk (a range shorter than
/// two grains) it equals the serial sum bit-for-bit.
double ParallelReduceSum(size_t begin, size_t end, size_t grain,
                         const std::function<double(size_t, size_t)>& chunk_sum);

/// In-place pairwise tree combine of per-chunk partial accumulators:
/// combine(parts[i], parts[i+stride]) folds the right element into the left,
/// strides doubling, leaving the total in parts[0]. Deterministic for a fixed
/// parts.size(). Used by ParallelReduceSum and by the segment softmax
/// kernels, whose partials are per-group arrays.
template <typename T, typename Combine>
void TreeCombine(std::vector<T>& parts, Combine&& combine) {
  for (size_t stride = 1; stride < parts.size(); stride *= 2) {
    for (size_t i = 0; i + stride < parts.size(); i += 2 * stride) {
      combine(parts[i], parts[i + stride]);
    }
  }
}

/// True while the calling thread is inside a ParallelFor/reduction body.
/// Exposed so tests can assert the nested-call guard and kernels can assert
/// they are at leaf level.
bool InParallelRegion();

}  // namespace gnn4tdl
