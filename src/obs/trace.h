#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/flags.h"

namespace gnn4tdl::obs {

/// One finished span as recorded into a thread buffer. Times are absolute
/// clock nanos; WriteChromeTrace rebases them against the trace start.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t tid = 0;     // stable small integer per recording thread
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  int64_t cpu_ns = 0;  // thread-CPU time inside the span
  double flops = 0.0;
  double bytes = 0.0;
  double items = 0.0;
  /// Bytes acquired (arena or heap) on this thread while the span was open.
  /// Includes child-span allocations: the counter is a monotonic per-thread
  /// total and the span records its delta.
  double alloc_bytes = 0.0;
  /// Trace ids of the serving requests this span worked on (batch spans).
  std::vector<uint64_t> request_ids;
};

class TraceSpan;

/// Process-wide span collector. Spans are recorded into per-thread buffers
/// (one mutex acquisition per finished span, never contended in steady
/// state); Collect() merges them. Buffers are held as shared_ptr so they
/// survive the death of pool threads between Start and Collect.
///
/// Lifecycle: Start() clears previous spans and begins recording; Stop()
/// ends it; Collect()/WriteChromeTrace() read the result. When tracing is
/// off (the default), a TraceSpan construction costs one relaxed atomic
/// load and nothing is recorded.
class Tracer {
 public:
  static Tracer& Global();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Start();
  void Stop();
  bool enabled() const { return (ObsFlags() & kObsTracing) != 0; }

  /// Substitute a FakeClock for deterministic tests; null restores the real
  /// clock. Must not be called while spans are being recorded.
  void set_clock(const Clock* clock);
  const Clock* clock() const;

  /// All spans recorded since Start(), sorted by start time.
  std::vector<SpanRecord> Collect() const;

  /// Chrome Trace Event JSON ("ph":"X" complete events, microsecond
  /// timestamps relative to trace start) — loadable in chrome://tracing and
  /// Perfetto. Span annotations (flops, bytes, items, thread CPU ms, span
  /// ids) land in each event's "args".
  void WriteChromeTrace(std::ostream& out) const;

  int64_t trace_start_ns() const { return trace_start_ns_; }

 private:
  friend class TraceSpan;
  friend class TraceAmbientParent;
  struct ThreadBuffer {
    Mutex mu;
    std::vector<SpanRecord> spans GNN4TDL_GUARDED_BY(mu);
    uint64_t tid = 0;  // lint:unguarded(written once under the Tracer's mu_ before the buffer is shared)
  };
  struct ThreadState {
    std::shared_ptr<ThreadBuffer> buffer;
    std::vector<uint64_t> stack;   // open span ids on this thread
    uint64_t ambient_parent = 0;   // inherited from the pool job submitter
  };

  Tracer() = default;
  static ThreadState& State();
  ThreadBuffer& BufferForThisThread();

  mutable Mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ GNN4TDL_GUARDED_BY(mu_);
  uint64_t next_tid_ GNN4TDL_GUARDED_BY(mu_) = 0;
  int64_t trace_start_ns_ = 0;  // lint:unguarded(written by Start() before recording begins; read-only afterwards)
};

/// RAII scoped span. Opening one while tracing is enabled records a node in
/// the span tree: the parent is the innermost open span on this thread, or
/// the ambient parent installed by the thread pool (the span that was open
/// on the submitting thread), or root. Annotate work with AddFlops/AddBytes/
/// AddItems; totals are attached to the span on destruction.
///
/// A span is also live while a SpanCapture sink is installed on this thread
/// (the flight recorder's path), even with global tracing off; such spans go
/// to the sink only, not the Tracer buffers.
///
/// When tracing is disabled and no sink is installed the constructor is one
/// relaxed atomic load (plus one more when any capture exists process-wide).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void AddFlops(double flops) { flops_ += flops; }
  void AddBytes(double bytes) { bytes_ += bytes; }
  void AddItems(double items) { items_ += items; }
  /// Tag the span with a serving-request trace id (batch spans carry one per
  /// batch member). No-op when the span is inactive.
  void AddRequestId(uint64_t trace_id);

  /// Id of the innermost open span on the calling thread (0 if none, or if
  /// tracing is off). The thread pool captures this at job submission to
  /// parent worker-side spans under the caller's span.
  static uint64_t ActiveId();

 private:
  bool active_ = false;
  bool to_tracer_ = false;  // push into the global Tracer buffers on close
  const char* name_ = nullptr;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
  int64_t start_cpu_ns_ = 0;
  uint64_t start_alloc_bytes_ = 0;
  double flops_ = 0.0;
  double bytes_ = 0.0;
  double items_ = 0.0;
  std::vector<uint64_t> request_ids_;
  std::vector<SpanRecord>* sink_ = nullptr;  // thread-local capture, if any
};

/// RAII thread-local span sink: while alive, every span finished on this
/// thread is also appended to `*out` (with `tid` left 0 — the capture is
/// single-threaded by construction). Used by the serving engine's batching
/// worker to capture the span subtree of one batch for the flight recorder
/// without enabling global tracing. `out` must not be null. Nests: the
/// previous sink is restored on destruction (inner sink wins while alive).
class SpanCapture {
 public:
  explicit SpanCapture(std::vector<SpanRecord>* out);
  ~SpanCapture();
  SpanCapture(const SpanCapture&) = delete;
  SpanCapture& operator=(const SpanCapture&) = delete;

 private:
  std::vector<SpanRecord>* previous_ = nullptr;
};

/// Per-thread monotonic allocated-bytes counter backing SpanRecord::
/// alloc_bytes. The arena (common/arena.cc) calls AddAllocatedBytesOnThisThread
/// on every buffer acquisition — arena-pooled and heap alike — and each
/// TraceSpan records the delta across its lifetime. Lives in obs (not
/// common) because obs is the bottom layer: the arena may call down into
/// obs, never the reverse.
void AddAllocatedBytesOnThisThread(uint64_t bytes);
uint64_t AllocatedBytesOnThisThread();

/// True when a SpanCapture sink is installed on the calling thread. Cheap:
/// one relaxed atomic load when no capture exists anywhere in the process.
/// KernelScope consults this so kernel spans reach the flight recorder even
/// with global tracing off.
bool SpanCaptureActiveOnThisThread();

/// RAII ambient-parent installer used by the thread pool: while alive, spans
/// opened on this thread with an empty span stack parent under `parent_id`
/// instead of root. Restores the previous ambient parent on destruction.
class TraceAmbientParent {
 public:
  explicit TraceAmbientParent(uint64_t parent_id);
  ~TraceAmbientParent();
  TraceAmbientParent(const TraceAmbientParent&) = delete;
  TraceAmbientParent& operator=(const TraceAmbientParent&) = delete;

 private:
  uint64_t previous_ = 0;
};

}  // namespace gnn4tdl::obs
