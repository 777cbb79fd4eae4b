#include "serve/tenant_engine.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/trace.h"

namespace gnn4tdl {

namespace {

// Batch sizes are small integers; start the buckets at 1 so each size up to
// ~16 lands near its own bucket. The histogram's Count and Sum are exact, so
// ServeStats' batches and mean_batch_rows come from it.
obs::HistogramOptions BatchRowsHistogramOptions() {
  obs::HistogramOptions opts;
  opts.min_value = 1.0;
  opts.num_buckets = 64;
  return opts;
}

// Makes the read-max-write of a max_queue_depth gauge atomic when two
// engines stop at once.
Mutex peak_gauge_mu;

}  // namespace

std::string ServeStats::ToString() const {
  std::ostringstream out;
  out << "requests=" << requests << " batches=" << batches
      << " rejected=" << rejected << " mean_batch=" << mean_batch_rows
      << " p50_ms=" << p50_ms << " p95_ms=" << p95_ms << " p99_ms=" << p99_ms
      << " max_ms=" << max_ms << " throughput_rps=" << throughput_rps
      << " max_queue_depth=" << max_queue_depth;
  if (requests > 0) {
    const double n = static_cast<double>(requests);
    out << " mean_wait_ms=" << queue_wait_ms_sum / n
        << " mean_compute_ms=" << compute_ms_sum / n;
  }
  return out.str();
}

MultiTenantEngine::TenantState::TenantState(const Tenant* t)
    : tenant(t), batch_rows_hist(BatchRowsHistogramOptions()) {}

void MultiTenantEngine::TenantState::MergeFrom(const TenantState& other) {
  latency_ms_hist.Merge(other.latency_ms_hist);
  queue_wait_ms_hist.Merge(other.queue_wait_ms_hist);
  compute_ms_hist.Merge(other.compute_ms_hist);
  batch_rows_hist.Merge(other.batch_rows_hist);
  rejected += other.rejected;
  first_submit_ns = std::min(first_submit_ns, other.first_submit_ns);
  last_complete_ns = std::max(last_complete_ns, other.last_complete_ns);
}

MultiTenantEngine::MultiTenantEngine(const ModelRegistry* registry,
                                     MultiTenantEngineOptions options)
    : registry_(registry),
      clock_(options.clock != nullptr ? options.clock : obs::RealClock()),
      recorder_(options.recorder) {
  GNN4TDL_CHECK(registry_ != nullptr);
  for (const Tenant* t : registry_->Tenants()) {
    auto state = std::make_unique<TenantState>(t);
    state->credits = t->options.weight;
    tenants_.push_back(std::move(state));
  }
  // Pre-warm the shared kernel pool (sized by GNN4TDL_THREADS) so the first
  // batch forward does not pay worker spin-up inside its latency budget.
  ThreadPool::Global();
  worker_ = std::thread([this] { WorkerLoop(); });
}

MultiTenantEngine::~MultiTenantEngine() { Stop(); }

void MultiTenantEngine::Stop() {
  bool should_join = false;
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    // Exactly one caller joins: concurrent Stop()/destructor races on
    // std::thread::join are undefined behavior.
    should_join = !worker_joined_ && worker_.joinable();
    worker_joined_ = true;
  }
  cv_.NotifyAll();
  if (!should_join) return;
  worker_.join();
  if (obs::MetricsEnabled()) ExportMetrics();
}

void MultiTenantEngine::ExportMetrics() const {
  auto& registry = obs::MetricsRegistry::Global();
  const auto export_state = [&registry](const std::string& prefix,
                                        const TenantState& t,
                                        size_t max_queue_depth) {
    registry.GetHistogram(prefix + "latency_ms").Merge(t.latency_ms_hist);
    registry.GetHistogram(prefix + "queue_wait_ms")
        .Merge(t.queue_wait_ms_hist);
    registry.GetHistogram(prefix + "compute_ms").Merge(t.compute_ms_hist);
    registry.GetHistogram(prefix + "batch_rows", BatchRowsHistogramOptions())
        .Merge(t.batch_rows_hist);
    registry.GetCounter(prefix + "requests_total")
        .Add(static_cast<double>(t.latency_ms_hist.Count()));
    registry.GetCounter(prefix + "rejected_total")
        .Add(static_cast<double>(t.rejected));
    // A peak over every engine of the process, not a live depth.
    obs::Gauge& peak = registry.GetGauge(prefix + "max_queue_depth");
    MutexLock peak_lock(&peak_gauge_mu);
    peak.Set(std::max(peak.Value(), static_cast<double>(max_queue_depth)));
  };
  MutexLock lock(&mu_);
  TenantState all(nullptr);
  for (const auto& t : tenants_) {
    all.MergeFrom(*t);
    export_state("serve.tenant." + t->tenant->name + ".", *t,
                 t->max_queue_depth);
  }
  export_state("serve.", all, max_queue_depth_);
}

StatusOr<std::future<std::vector<double>>> MultiTenantEngine::Submit(
    const std::string& tenant, std::vector<double> features) {
  StatusOr<SubmitResult> result = SubmitTraced(tenant, std::move(features));
  if (!result.ok()) return result.status();
  return std::move(result->future);
}

StatusOr<SubmitResult> MultiTenantEngine::SubmitTraced(
    const std::string& tenant, std::vector<double> features,
    uint64_t trace_id) {
  Request req;
  req.features = std::move(features);
  req.ctx.trace_id = trace_id;
  req.ctx.enqueued_ns = clock_->NowNanos();
  std::future<std::vector<double>> future = req.promise.get_future();

  {
    MutexLock lock(&mu_);
    if (stopping_) {
      return Status::FailedPrecondition("serving engine is stopped");
    }
    TenantState* t = FindTenantLocked(tenant);
    if (t == nullptr) {
      return Status::NotFound("unknown tenant '" + tenant + "'");
    }
    const FrozenModel* model = t->tenant->model;
    if (req.features.size() != model->feature_dim()) {
      return Status::InvalidArgument(
          "feature vector has " + std::to_string(req.features.size()) +
          " entries, tenant '" + tenant + "' expects " +
          std::to_string(model->feature_dim()));
    }
    GNN4TDL_RETURN_IF_ERROR(
        CheckFiniteFeatures(req.features.data(), req.features.size()));
    if (t->queue.size() >= t->tenant->options.queue_capacity) {
      ++t->rejected;
      return Status::ResourceExhausted(
          "tenant '" + tenant + "' queue is full (" +
          std::to_string(t->tenant->options.queue_capacity) + " rows)");
    }
    // Auto-assigned trace ids are handed out under mu_ in submission order,
    // so a serialized submitter sees deterministic ids run to run. Admission
    // rejections above never consume an id.
    if (req.ctx.trace_id == 0) req.ctx.trace_id = next_trace_id_++;
    t->first_submit_ns = std::min(t->first_submit_ns, req.ctx.enqueued_ns);
    trace_id = req.ctx.trace_id;
    t->queue.push_back(std::move(req));
    ++total_queued_;
    t->max_queue_depth = std::max(t->max_queue_depth, t->queue.size());
    max_queue_depth_ = std::max(max_queue_depth_, total_queued_);
  }
  cv_.NotifyOne();
  SubmitResult result;
  result.trace_id = trace_id;
  result.future = std::move(future);
  return result;
}

MultiTenantEngine::TenantState* MultiTenantEngine::PickTenantLocked() {
  const size_t n = tenants_.size();
  // The scan begins just past the previously picked tenant, so equal-weight
  // tenants interleave instead of the lowest index winning every tie. When
  // every non-empty queue has spent this round's credits, the refill starts
  // the next round and the second pass finds one of them.
  for (int pass = 0;; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      TenantState& t = *tenants_[(rr_cursor_ + i) % n];
      if (t.credits > 0 && !t.queue.empty()) {
        --t.credits;
        rr_cursor_ = (rr_cursor_ + i + 1) % n;
        return &t;
      }
    }
    if (pass == 1) return nullptr;  // every queue is empty
    for (auto& t : tenants_) t->credits = t->tenant->options.weight;
  }
}

const MultiTenantEngine::TenantState* MultiTenantEngine::FindTenantLocked(
    const std::string& name) const {
  for (const auto& t : tenants_) {
    if (t->tenant->name == name) return t.get();
  }
  return nullptr;
}

void MultiTenantEngine::WorkerLoop() {
  for (;;) {
    std::vector<Request> batch;
    TenantState* ts = nullptr;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && total_queued_ == 0) cv_.Wait(lock);
      if (total_queued_ == 0) break;  // stopping_ and fully drained

      // Work-conserving: a free worker dispatches whatever is queued now.
      // Rows that arrive while it scores this batch form the next one.
      ts = PickTenantLocked();
      GNN4TDL_CHECK(ts != nullptr);  // total_queued_ > 0
      const size_t take =
          std::min(ts->queue.size(), ts->tenant->options.max_batch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(ts->queue.front()));
        ts->queue.pop_front();
      }
      total_queued_ -= take;
    }

    const FrozenModel* model = ts->tenant->model;
    const int64_t batch_start_ns = clock_->NowNanos();
    // Capture the batch's span subtree for the flight recorder (spans opened
    // on this worker thread: serve/batch, serve/attach, kernel scopes opened
    // before the pool fan-out). With the recorder off no sink is installed
    // and the spans stay the usual tracing-gated no-ops.
    std::vector<obs::SpanRecord> batch_spans;
    StatusOr<Matrix> logits = [&] {
      obs::SpanCapture capture(recorder_.enabled() ? &batch_spans : nullptr);
      obs::TraceSpan span("serve/batch");
      span.AddItems(static_cast<double>(batch.size()));
      for (const Request& req : batch) span.AddRequestId(req.ctx.trace_id);
      Matrix x(batch.size(), model->feature_dim());
      for (size_t i = 0; i < batch.size(); ++i) {
        std::copy(batch[i].features.begin(), batch[i].features.end(),
                  x.row_data(i));
      }
      return model->ScoreFeatures(x);
    }();
    const int64_t done_ns = clock_->NowNanos();

    // Record the batch before resolving its futures, so a caller holding its
    // result always finds itself in Stats(): 1 histogram record per batch,
    // 3 per request.
    ts->batch_rows_hist.Record(static_cast<double>(batch.size()));
    // Kernel work totals of the whole batch: summed over captured kernel
    // spans (op-level wrapper spans included, matching KernelCounters'
    // per-name accounting). Allocated bytes come from the root serve/batch
    // span alone — its thread-local delta already includes every child.
    double batch_flops = 0.0, batch_bytes = 0.0, batch_alloc = 0.0;
    for (const obs::SpanRecord& s : batch_spans) {
      batch_flops += s.flops;
      batch_bytes += s.bytes;
      if (s.name == "serve/batch") batch_alloc = s.alloc_bytes;
    }
    const double slo_ms = ts->tenant->options.slo_ms;
    for (const Request& req : batch) {
      const double wait_ms =
          static_cast<double>(batch_start_ns - req.ctx.enqueued_ns) / 1e6;
      const double compute_ms =
          static_cast<double>(done_ns - batch_start_ns) / 1e6;
      const double ms =
          static_cast<double>(done_ns - req.ctx.enqueued_ns) / 1e6;
      ts->latency_ms_hist.Record(ms, req.ctx.trace_id);
      ts->queue_wait_ms_hist.Record(wait_ms, req.ctx.trace_id);
      ts->compute_ms_hist.Record(compute_ms, req.ctx.trace_id);
      if (recorder_.enabled()) {
        obs::RequestDigest digest;
        digest.tenant = ts->tenant->name;
        digest.trace_id = req.ctx.trace_id;
        digest.enqueued_ns = req.ctx.enqueued_ns;
        digest.queue_wait_ms = wait_ms;
        digest.compute_ms = compute_ms;
        digest.total_ms = ms;
        digest.batch_size = batch.size();
        digest.flops = batch_flops;
        digest.bytes = batch_bytes;
        digest.alloc_bytes = batch_alloc;
        digest.slo_ms = slo_ms;
        digest.slo_breach = ms > slo_ms;
        // Tail sampling: only breaches carry the span subtree into the
        // retained store; ring entries stay span-free.
        if (digest.slo_breach) digest.spans = batch_spans;
        recorder_.Record(std::move(digest));
      }
    }
    {
      MutexLock lock(&mu_);
      ts->last_complete_ns = done_ns;
    }

    for (size_t i = 0; i < batch.size(); ++i) {
      if (!logits.ok()) {
        batch[i].promise.set_exception(std::make_exception_ptr(
            std::runtime_error(logits.status().ToString())));
      } else {
        std::vector<double> row(logits->row_data(i),
                                logits->row_data(i) + logits->cols());
        batch[i].promise.set_value(std::move(row));
      }
    }
  }
}

ServeStats MultiTenantEngine::StatsFor(const TenantState& t) const {
  ServeStats stats;
  stats.requests = t.latency_ms_hist.Count();
  stats.batches = t.batch_rows_hist.Count();
  stats.rejected = t.rejected;
  stats.max_queue_depth = t.max_queue_depth;
  if (stats.batches > 0) {
    stats.mean_batch_rows =
        t.batch_rows_hist.Sum() / static_cast<double>(stats.batches);
  }
  if (stats.requests > 0) {
    stats.p50_ms = t.latency_ms_hist.Quantile(0.50);
    stats.p95_ms = t.latency_ms_hist.Quantile(0.95);
    stats.p99_ms = t.latency_ms_hist.Quantile(0.99);
    stats.max_ms = t.latency_ms_hist.Max();
    stats.latency_ms_sum = t.latency_ms_hist.Sum();
    stats.queue_wait_ms_sum = t.queue_wait_ms_hist.Sum();
    stats.compute_ms_sum = t.compute_ms_hist.Sum();
    const double span_s =
        static_cast<double>(t.last_complete_ns - t.first_submit_ns) / 1e9;
    stats.throughput_rps =
        span_s > 0.0 ? static_cast<double>(stats.requests) / span_s : 0.0;
  }
  return stats;
}

ServeStats MultiTenantEngine::Stats() const {
  MutexLock lock(&mu_);
  TenantState all(nullptr);
  for (const auto& t : tenants_) all.MergeFrom(*t);
  all.max_queue_depth = max_queue_depth_;
  return StatsFor(all);
}

StatusOr<ServeStats> MultiTenantEngine::TenantStats(
    const std::string& tenant) const {
  MutexLock lock(&mu_);
  const TenantState* t = FindTenantLocked(tenant);
  if (t == nullptr) return Status::NotFound("unknown tenant '" + tenant + "'");
  return StatsFor(*t);
}

StatusOr<double> MultiTenantEngine::TenantLatencyFractionBelow(
    const std::string& tenant, double threshold_ms) const {
  MutexLock lock(&mu_);
  const TenantState* t = FindTenantLocked(tenant);
  if (t == nullptr) return Status::NotFound("unknown tenant '" + tenant + "'");
  const uint64_t total = t->latency_ms_hist.Count();
  if (total == 0) return 1.0;
  uint64_t below = 0;
  for (const auto& [upper, cumulative] : t->latency_ms_hist.CumulativeBuckets()) {
    if (upper <= threshold_ms) {
      below = cumulative;
    } else {
      break;
    }
  }
  return static_cast<double>(below) / static_cast<double>(total);
}

}  // namespace gnn4tdl
