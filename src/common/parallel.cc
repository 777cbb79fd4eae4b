#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/check.h"

namespace gnn4tdl {

namespace {

// Load-balance factor for plain loops: more chunks than threads so a slow
// chunk does not leave the other lanes idle. Reductions cap their chunks at
// kReduceMaxChunks instead, whatever the pool size.
constexpr size_t kChunksPerThread = 4;

// Set while any thread executes a ParallelFor/reduction body; used to reject
// nested parallelism (kernels must stay leaf-level, see parallel.h).
thread_local bool tl_in_parallel_region = false;

class ParallelRegionScope {
 public:
  ParallelRegionScope() { tl_in_parallel_region = true; }
  ~ParallelRegionScope() { tl_in_parallel_region = false; }
};

void RejectNested(const char* what) {
  if (tl_in_parallel_region) {
    throw std::logic_error(std::string(what) +
                           ": nested parallel regions are not supported; "
                           "kernels must be leaf-level");
  }
}

// Runs body(range) for every range, either inline (single range or serial
// pool) or on the global pool, with the nested-region guard active in every
// executing thread.
void RunRanges(const std::vector<Range>& ranges,
               const std::function<void(size_t, const Range&)>& body) {
  if (ranges.empty()) return;
  if (ranges.size() == 1) {
    ParallelRegionScope scope;
    body(0, ranges[0]);
    return;
  }
  ThreadPool::Global().Run(ranges.size(), [&](size_t chunk) {
    body(chunk, ranges[chunk]);
  });
}

}  // namespace

bool InParallelRegion() { return tl_in_parallel_region; }

size_t ThreadCountFromEnv() {
  const char* env = std::getenv("GNN4TDL_THREADS");
  size_t n = 0;
  if (env == nullptr || *env == '\0') {
    n = std::thread::hardware_concurrency();
  } else {
    char* end = nullptr;
    unsigned long parsed = std::strtoul(env, &end, 10);
    n = (end != nullptr && *end == '\0') ? static_cast<size_t>(parsed) : 1;
  }
  return std::min<size_t>(std::max<size_t>(n, 1), 256);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(ThreadCountFromEnv());
  return pool;
}

ThreadPool::ThreadPool(size_t num_threads) {
  MutexLock run_lock(&run_mu_);
  StartWorkers(std::max<size_t>(num_threads, 1) - 1);
}

ThreadPool::~ThreadPool() {
  MutexLock run_lock(&run_mu_);
  StopWorkers();
}

void ThreadPool::SetNumThreads(size_t n) {
  MutexLock run_lock(&run_mu_);
  StopWorkers();
  StartWorkers(std::max<size_t>(n, 1) - 1);
}

void ThreadPool::StartWorkers(size_t num_workers) {
  {
    MutexLock lock(&mu_);
    shutdown_ = false;
  }
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  num_threads_.store(num_workers + 1, std::memory_order_relaxed);
}

void ThreadPool::StopWorkers() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  num_threads_.store(1, std::memory_order_relaxed);
}

bool ThreadPool::NextChunk(size_t* chunk,
                           const std::function<void(size_t)>** fn) {
  MutexLock lock(&mu_);
  if (job_fn_ == nullptr || job_next_chunk_ >= job_num_chunks_) return false;
  *chunk = job_next_chunk_++;
  *fn = job_fn_;
  return true;
}

void ThreadPool::FinishChunk() {
  bool last = false;
  {
    MutexLock lock(&mu_);
    GNN4TDL_CHECK_GT(job_pending_chunks_, 0u);
    last = --job_pending_chunks_ == 0;
  }
  if (last) done_cv_.NotifyAll();
}

void ThreadPool::RunChunk(size_t chunk, const std::function<void(size_t)>& fn) {
  try {
    ParallelRegionScope scope;
    // Parent spans opened inside the chunk under the submitter's span.
    // job_trace_parent_ is written under mu_ before dispatch and read here
    // after NextChunk's mu_ acquisition, so the read is ordered.
    obs::TraceAmbientParent trace_parent(job_trace_parent_);
    fn(chunk);
  } catch (...) {
    MutexLock lock(&mu_);
    if (!job_error_) job_error_ = std::current_exception();
    // Cancel the chunks nobody has started yet; pending_chunks_ was already
    // debited for them, so the caller's wait still terminates.
    job_pending_chunks_ -= job_num_chunks_ - job_next_chunk_;
    job_next_chunk_ = job_num_chunks_;
  }
  FinishChunk();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      MutexLock lock(&mu_);
      // Explicit wait loop (not a predicate lambda) so the guarded reads sit
      // in this function, where the thread-safety analysis can see the lock.
      while (!(shutdown_ ||
               (job_fn_ != nullptr && job_generation_ != seen_generation &&
                job_next_chunk_ < job_num_chunks_))) {
        work_cv_.Wait(lock);
      }
      if (shutdown_) return;
      seen_generation = job_generation_;
    }
    size_t chunk = 0;
    const std::function<void(size_t)>* fn = nullptr;
    while (NextChunk(&chunk, &fn)) RunChunk(chunk, *fn);
  }
}

void ThreadPool::Run(size_t num_chunks,
                     const std::function<void(size_t)>& chunk_fn) {
  if (num_chunks == 0) return;
  // Rejecting nesting here (not just in ParallelFor) matters for liveness: a
  // chunk body that re-entered Run would deadlock on run_mu_, which its own
  // caller holds for the duration of the outer job.
  RejectNested("ThreadPool::Run");
  // Serial fallback: run inline with the guard active; exceptions propagate
  // directly. A single chunk never needs the workers, so it skips run_mu_ too
  // and does not wait behind another thread's pooled job.
  const auto run_inline = [&] {
    ParallelRegionScope scope;
    for (size_t c = 0; c < num_chunks; ++c) chunk_fn(c);
  };
  if (num_chunks == 1) return run_inline();
  MutexLock run_lock(&run_mu_);
  if (workers_.empty()) return run_inline();

  {
    MutexLock lock(&mu_);
    job_fn_ = &chunk_fn;
    job_num_chunks_ = num_chunks;
    job_next_chunk_ = 0;
    job_pending_chunks_ = num_chunks;
    job_error_ = nullptr;
    job_trace_parent_ = obs::TraceSpan::ActiveId();
    ++job_generation_;
  }
  work_cv_.NotifyAll();

  // The caller is a full lane: it pulls chunks like any worker.
  size_t chunk = 0;
  const std::function<void(size_t)>* fn = nullptr;
  while (NextChunk(&chunk, &fn)) RunChunk(chunk, *fn);

  std::exception_ptr error;
  {
    MutexLock lock(&mu_);
    while (job_pending_chunks_ != 0) done_cv_.Wait(lock);
    job_fn_ = nullptr;
    error = job_error_;
    job_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

std::vector<Range> PartitionRange(size_t begin, size_t end, size_t grain,
                                  size_t max_chunks) {
  GNN4TDL_CHECK_LE(begin, end);
  const size_t n = end - begin;
  if (n == 0) return {};
  const size_t g = std::max<size_t>(grain, 1);
  size_t chunks = std::min(std::max<size_t>(max_chunks, 1), n / g);
  chunks = std::max<size_t>(chunks, 1);
  std::vector<Range> ranges;
  ranges.reserve(chunks);
  const size_t base = n / chunks;
  const size_t rem = n % chunks;
  size_t at = begin;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t len = base + (c < rem ? 1 : 0);
    ranges.push_back({at, at + len});
    at += len;
  }
  GNN4TDL_CHECK_EQ(at, end);
  return ranges;
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body) {
  RejectNested("ParallelFor");
  const size_t threads = ThreadPool::Global().num_threads();
  std::vector<Range> ranges =
      PartitionRange(begin, end, grain, threads * kChunksPerThread);
  RunRanges(ranges, [&](size_t, const Range& r) { body(r.begin, r.end); });
}

double ParallelReduceSum(
    size_t begin, size_t end, size_t grain,
    const std::function<double(size_t, size_t)>& chunk_sum) {
  RejectNested("ParallelReduceSum");
  std::vector<Range> ranges =
      PartitionRange(begin, end, grain, kReduceMaxChunks);
  if (ranges.empty()) return 0.0;
  std::vector<double> partials(ranges.size(), 0.0);
  RunRanges(ranges, [&](size_t idx, const Range& r) {
    partials[idx] = chunk_sum(r.begin, r.end);
  });
  TreeCombine(partials, [](double& into, double from) { into += from; });
  return partials[0];
}

}  // namespace gnn4tdl
