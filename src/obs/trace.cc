#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <sstream>

namespace gnn4tdl::obs {

namespace {

std::atomic<uint64_t> g_next_span_id{1};

// The active clock is swapped atomically so set_clock (test setup) never
// races a worker thread reading it mid-span.
std::atomic<const Clock*> g_clock{nullptr};

// Count of live SpanCapture sinks process-wide. Lets TraceSpan skip the
// thread-local sink lookup entirely when no capture exists anywhere, keeping
// the all-off cost at two relaxed loads.
std::atomic<uint64_t> g_capture_count{0};

thread_local std::vector<SpanRecord>* t_span_sink = nullptr;
thread_local uint64_t t_allocated_bytes = 0;

std::vector<SpanRecord>* ThreadSpanSink() {
  if (g_capture_count.load(std::memory_order_relaxed) == 0) return nullptr;
  return t_span_sink;
}

const Clock* ActiveClock() {
  const Clock* clock = g_clock.load(std::memory_order_acquire);
  return clock != nullptr ? clock : RealClock();
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadState& Tracer::State() {
  thread_local ThreadState state;
  return state;
}

Tracer::ThreadBuffer& Tracer::BufferForThisThread() {
  ThreadState& state = State();
  if (!state.buffer) {
    auto buffer = std::make_shared<ThreadBuffer>();
    {
      MutexLock lock(&mu_);
      buffer->tid = next_tid_++;
      buffers_.push_back(buffer);
    }
    state.buffer = std::move(buffer);
  }
  return *state.buffer;
}

void Tracer::Start() {
  {
    MutexLock lock(&mu_);
    for (auto& buffer : buffers_) {
      MutexLock buffer_lock(&buffer->mu);
      buffer->spans.clear();
    }
    trace_start_ns_ = ActiveClock()->NowNanos();
  }
  internal::SetObsFlag(kObsTracing, true);
}

void Tracer::Stop() { internal::SetObsFlag(kObsTracing, false); }

void Tracer::set_clock(const Clock* clock) {
  g_clock.store(clock, std::memory_order_release);
}

const Clock* Tracer::clock() const { return ActiveClock(); }

std::vector<SpanRecord> Tracer::Collect() const {
  std::vector<SpanRecord> all;
  MutexLock lock(&mu_);
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(&buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_ns < b.start_ns;
                   });
  return all;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void Tracer::WriteChromeTrace(std::ostream& out) const {
  std::vector<SpanRecord> spans = Collect();
  int64_t base_ns = trace_start_ns_;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) out << ",";
    first = false;
    double ts_us = static_cast<double>(span.start_ns - base_ns) / 1000.0;
    double dur_us = static_cast<double>(span.dur_ns) / 1000.0;
    out << "\n{\"name\":\"" << JsonEscape(span.name)
        << "\",\"cat\":\"gnn4tdl\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid
        << ",\"ts\":" << ts_us << ",\"dur\":" << dur_us << ",\"args\":{"
        << "\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"thread_cpu_ms\":" << static_cast<double>(span.cpu_ns) / 1e6;
    if (span.flops > 0) out << ",\"flops\":" << span.flops;
    if (span.bytes > 0) out << ",\"bytes\":" << span.bytes;
    if (span.items > 0) out << ",\"items\":" << span.items;
    if (span.alloc_bytes > 0) out << ",\"alloc_bytes\":" << span.alloc_bytes;
    if (!span.request_ids.empty()) {
      out << ",\"requests\":[";
      for (size_t i = 0; i < span.request_ids.size(); ++i) {
        if (i > 0) out << ",";
        out << span.request_ids[i];
      }
      out << "]";
    }
    out << "}}";
  }
  out << "\n]}\n";
}

TraceSpan::TraceSpan(const char* name) {
  to_tracer_ = (ObsFlags() & kObsTracing) != 0;
  sink_ = ThreadSpanSink();
  if (!to_tracer_ && sink_ == nullptr) return;
  active_ = true;
  name_ = name;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  Tracer::ThreadState& state = Tracer::State();
  parent_ = state.stack.empty() ? state.ambient_parent : state.stack.back();
  state.stack.push_back(id_);
  const Clock* clock = ActiveClock();
  start_ns_ = clock->NowNanos();
  start_cpu_ns_ = clock->ThreadCpuNanos();
  start_alloc_bytes_ = t_allocated_bytes;
}

void TraceSpan::AddRequestId(uint64_t trace_id) {
  if (!active_) return;
  request_ids_.push_back(trace_id);
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  const Clock* clock = ActiveClock();
  SpanRecord record;
  record.name = name_;
  record.id = id_;
  record.parent = parent_;
  record.start_ns = start_ns_;
  record.dur_ns = clock->NowNanos() - start_ns_;
  record.cpu_ns = clock->ThreadCpuNanos() - start_cpu_ns_;
  record.flops = flops_;
  record.bytes = bytes_;
  record.items = items_;
  record.alloc_bytes =
      static_cast<double>(t_allocated_bytes - start_alloc_bytes_);
  record.request_ids = std::move(request_ids_);

  Tracer::ThreadState& state = Tracer::State();
  // The span stack is strictly LIFO per thread; pop our own id (it is the
  // top unless tracing was toggled mid-span, in which case active_ spans
  // still unwind in order).
  if (!state.stack.empty() && state.stack.back() == id_) state.stack.pop_back();

  // Sink first (record.tid stays 0 there: the capture is single-threaded and
  // a fake tid would defeat run-to-run determinism of retained traces).
  if (sink_ != nullptr) sink_->push_back(record);
  if (!to_tracer_) return;
  Tracer::ThreadBuffer& buffer = Tracer::Global().BufferForThisThread();
  record.tid = buffer.tid;
  MutexLock lock(&buffer.mu);
  buffer.spans.push_back(std::move(record));
}

uint64_t TraceSpan::ActiveId() {
  if ((ObsFlags() & kObsTracing) == 0) return 0;
  Tracer::ThreadState& state = Tracer::State();
  return state.stack.empty() ? state.ambient_parent : state.stack.back();
}

TraceAmbientParent::TraceAmbientParent(uint64_t parent_id) {
  Tracer::ThreadState& state = Tracer::State();
  previous_ = state.ambient_parent;
  state.ambient_parent = parent_id;
}

TraceAmbientParent::~TraceAmbientParent() {
  Tracer::State().ambient_parent = previous_;
}

SpanCapture::SpanCapture(std::vector<SpanRecord>* out)
    : previous_(t_span_sink) {
  t_span_sink = out;
  g_capture_count.fetch_add(1, std::memory_order_relaxed);
}

SpanCapture::~SpanCapture() {
  t_span_sink = previous_;
  g_capture_count.fetch_sub(1, std::memory_order_relaxed);
}

void AddAllocatedBytesOnThisThread(uint64_t bytes) {
  t_allocated_bytes += bytes;
}

uint64_t AllocatedBytesOnThisThread() { return t_allocated_bytes; }

bool SpanCaptureActiveOnThisThread() { return ThreadSpanSink() != nullptr; }

}  // namespace gnn4tdl::obs
