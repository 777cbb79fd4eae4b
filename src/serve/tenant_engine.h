#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/registry.h"

namespace gnn4tdl {

/// Aggregate serving counters. Latencies are end-to-end per request
/// (submission to completed scoring).
///
/// Precision contract: each tenant keeps its latency and batch-size
/// distributions in fixed-size log-bucket histograms (obs::Histogram), not
/// per-request history, so memory stays O(1) for any number of requests.
/// These histograms are the only store: the aggregate Stats() merges them.
/// The p50/p95/p99 fields are histogram estimates with bounded relative
/// error — at the default bucket growth of 2^(1/8), within ~4.4% of an exact
/// sorted percentile. `max_ms`, `requests`, `batches`, `mean_batch_rows`, and
/// `throughput_rps` are exact: requests and batches are histogram counts, and
/// the batch-rows sum is a sum of small integers. `rejected` counts
/// admission-control (queue-full) rejections only; stopped-engine,
/// unknown-tenant, and bad-dimension submissions are caller errors, not load
/// shedding.
struct ServeStats {
  size_t requests = 0;
  size_t batches = 0;
  size_t rejected = 0;
  double mean_batch_rows = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  /// Completed requests divided by the span between the first submission and
  /// the last completion.
  double throughput_rps = 0.0;
  size_t max_queue_depth = 0;
  /// Exact sums of the per-request latency split (queue wait = enqueue ->
  /// batch start; compute = batch start -> completion). By construction
  /// queue_wait_ms_sum + compute_ms_sum == latency_ms_sum up to floating
  /// rounding — CheckAccounting reconciles this.
  double latency_ms_sum = 0.0;
  double queue_wait_ms_sum = 0.0;
  double compute_ms_sum = 0.0;

  std::string ToString() const;
};

/// Request-scoped identity and timing, stamped at Submit and carried through
/// the bounded queue and the batching worker down to the batch trace span
/// and the flight-recorder digest. The trace id is deterministic: callers
/// (e.g. the load generator) pass their own ids, or the engine assigns the
/// next value of a per-engine counter in submission order.
struct RequestContext {
  uint64_t trace_id = 0;
  int64_t enqueued_ns = 0;
};

/// What SubmitTraced hands back: the future plus the trace id under which
/// the request's digest (and, on an SLO breach, its span subtree) can be
/// looked up in the engine's flight recorder.
struct SubmitResult {
  uint64_t trace_id = 0;
  std::future<std::vector<double>> future;
};

/// Engine-level options; per-tenant policy lives in TenantOptions.
struct MultiTenantEngineOptions {
  /// Time source for latency stamping; null means obs::RealClock(). Tests
  /// inject an obs::FakeClock for deterministic latency assertions.
  const obs::Clock* clock = nullptr;
  /// Flight-recorder sizing. The recorder is always on: the ring is bounded
  /// and the per-request cost is one striped mutex push.
  obs::FlightRecorderOptions recorder;
};

/// Micro-batching scorer over every tenant in a ModelRegistry: each tenant
/// gets its own bounded request queue and batch cap, and one worker thread
/// drains the queues in weighted round-robin order — each scheduling round
/// gives a tenant up to `weight` batches before the scan moves on, so a
/// saturated tenant cannot starve an idle one (its backlog only consumes its
/// own share of batch slots, and the idle tenant's first request is picked up
/// within one batch of being queued).
///
/// Dispatch is work-conserving: whenever the worker is free and any row is
/// queued, it picks a tenant by that round-robin and takes up to the tenant's
/// max_batch rows at once. No batch is held open waiting for more rows, so
/// batches form only from rows that arrive while the worker is busy; under
/// saturation they fill to max_batch.
///
/// Admission control: a Submit beyond the tenant's queue_capacity returns
/// kResourceExhausted — typed backpressure the caller can retry or shed, never
/// an exception — and is counted in the tenant's `rejected`.
///
/// Threading: one batching worker for the whole process, so batch forwards
/// never contend with each other for the shared kernel ThreadPool; scoring is
/// bit-identical at every thread count (see common/parallel.h). The
/// registry must outlive the engine and must not gain tenants after the
/// engine is constructed (the tenant list is snapshotted here).
///
/// Observability: each tenant's histograms record every request once, before
/// its future resolves; Stats() and TenantStats() read them. When
/// obs::MetricsEnabled(), the Stop() that joins the worker hands them to the
/// global registry once: serve.tenant.<name>.{latency_ms, queue_wait_ms,
/// compute_ms, batch_rows} histograms, requests_total / rejected_total
/// counters and a max_queue_depth gauge, plus the same names under serve.*
/// summed over tenants. Every batch forward runs under a "serve/batch"
/// trace span tagged with its member request trace ids. Every completed
/// request additionally lands a digest in the engine's flight recorder
/// (recorder()), latency-histogram buckets carry the most recent trace id as
/// a Prometheus exemplar, and requests breaching their tenant's slo_ms keep
/// their full batch span subtree in the recorder's retained store (see
/// docs/OBSERVABILITY.md, "Request tracing & flight recorder").
class MultiTenantEngine {
 public:
  explicit MultiTenantEngine(const ModelRegistry* registry,
                             MultiTenantEngineOptions options = {});
  ~MultiTenantEngine();

  MultiTenantEngine(const MultiTenantEngine&) = delete;
  MultiTenantEngine& operator=(const MultiTenantEngine&) = delete;

  /// Enqueues one featurized row for `tenant`. The future resolves to the
  /// row's logits; scoring errors surface through the future. Typed
  /// submission failures:
  ///   kResourceExhausted — tenant queue full (admission control; counted as
  ///                        rejected),
  ///   kNotFound          — unknown tenant,
  ///   kInvalidArgument   — wrong feature dimension or a NaN/Inf feature,
  ///   kFailedPrecondition — engine stopped.
  [[nodiscard]] StatusOr<std::future<std::vector<double>>> Submit(
      const std::string& tenant, std::vector<double> features);

  /// Submit with request-scoped tracing: the returned trace id tags the
  /// request through the batch span, the latency-histogram exemplars, and
  /// the flight recorder. Pass trace_id = 0 to let the engine assign the
  /// next id in submission order (deterministic for a serialized submitter);
  /// nonzero caller ids are used verbatim and should be unique per request.
  /// Same typed failures as Submit.
  [[nodiscard]] StatusOr<SubmitResult> SubmitTraced(
      const std::string& tenant, std::vector<double> features,
      uint64_t trace_id = 0);

  /// Drains every queue and joins the worker, then exports the accounting
  /// to the global registry when obs::MetricsEnabled(). Idempotent: only the
  /// first call joins and exports. The destructor calls it.
  void Stop();

  /// Accounting summed over all tenants.
  ServeStats Stats() const;
  /// One tenant's accounting (kNotFound for unknown names). max_queue_depth
  /// is the tenant's own queue; the aggregate Stats() tracks total depth.
  [[nodiscard]] StatusOr<ServeStats> TenantStats(
      const std::string& tenant) const;
  /// Fraction of the tenant's completed requests whose end-to-end latency
  /// was <= threshold_ms (SLO attainment, from the latency histogram's
  /// cumulative buckets — resolution is one bucket, ~9% in value). 1.0 when
  /// the tenant has completed nothing. kNotFound for unknown names.
  [[nodiscard]] StatusOr<double> TenantLatencyFractionBelow(
      const std::string& tenant, double threshold_ms) const;

  size_t num_tenants() const {
    MutexLock lock(&mu_);
    return tenants_.size();
  }
  const ModelRegistry* registry() const { return registry_; }

  /// The engine's flight recorder: bounded ring of completed-request digests
  /// plus retained SLO-breach traces (see obs/recorder.h). Snapshot/FindTrace
  /// are safe while the engine is serving.
  const obs::FlightRecorder& recorder() const { return recorder_; }

 private:
  struct Request {
    std::vector<double> features;
    std::promise<std::vector<double>> promise;
    RequestContext ctx;
  };

  /// Per-tenant queue + accounting. The four histograms are the engine's
  /// only store of serving accounting (requests and batches are their
  /// counts); they shard internally. Everything else is guarded by the
  /// engine-wide mu_.
  struct TenantState {
    /// Null for the tenant-sum state that Stats() and the export build.
    const Tenant* tenant = nullptr;
    std::deque<Request> queue;
    /// WRR credits remaining this round.
    size_t credits = 0;

    obs::Histogram latency_ms_hist;
    obs::Histogram queue_wait_ms_hist;
    obs::Histogram compute_ms_hist;
    obs::Histogram batch_rows_hist;
    size_t rejected = 0;
    size_t max_queue_depth = 0;
    /// Earliest admitted submission; INT64_MAX until there is one.
    int64_t first_submit_ns = std::numeric_limits<int64_t>::max();
    int64_t last_complete_ns = 0;

    explicit TenantState(const Tenant* t);
    /// Adds `other`'s histograms, rejections and time span into this state
    /// (not its queue or its max_queue_depth).
    void MergeFrom(const TenantState& other);
  };

  void WorkerLoop();
  /// WRR pick: next tenant with queued rows and credits, refilling a spent
  /// round. Null only when every queue is empty.
  TenantState* PickTenantLocked() GNN4TDL_REQUIRES(mu_);
  const TenantState* FindTenantLocked(const std::string& name) const
      GNN4TDL_REQUIRES(mu_);
  TenantState* FindTenantLocked(const std::string& name)
      GNN4TDL_REQUIRES(mu_) {
    return const_cast<TenantState*>(
        static_cast<const MultiTenantEngine*>(this)->FindTenantLocked(name));
  }
  ServeStats StatsFor(const TenantState& t) const GNN4TDL_REQUIRES(mu_);
  /// Adds the accounting to obs::MetricsRegistry::Global(); Stop() calls it
  /// once, after the worker has drained.
  void ExportMetrics() const;

  const ModelRegistry* const registry_;
  const obs::Clock* const clock_;

  mutable Mutex mu_;
  CondVar cv_;
  bool stopping_ GNN4TDL_GUARDED_BY(mu_) = false;
  size_t total_queued_ GNN4TDL_GUARDED_BY(mu_) = 0;
  size_t rr_cursor_ GNN4TDL_GUARDED_BY(mu_) = 0;
  // The vector itself is filled in the constructor (before the worker
  // starts) and never resized; the TenantState contents are mutated under
  // mu_, except the internally-sharded histograms and the const-after-
  // construction tenant pointer.
  std::vector<std::unique_ptr<TenantState>> tenants_ GNN4TDL_GUARDED_BY(mu_);

  obs::FlightRecorder recorder_;  // lint:unguarded(FlightRecorder locks internally)
  uint64_t next_trace_id_ GNN4TDL_GUARDED_BY(mu_) = 1;
  /// Peak total queued rows across tenants; not derivable from the
  /// per-tenant peaks, which need not coincide.
  size_t max_queue_depth_ GNN4TDL_GUARDED_BY(mu_) = 0;

  /// True once some Stop() call has claimed the join; makes concurrent
  /// Stop()/destructor calls join the worker exactly once (std::thread::join
  /// from two threads at once is undefined behavior — flushed out by the
  /// lock-discipline triage, see docs/STATIC_ANALYSIS.md).
  bool worker_joined_ GNN4TDL_GUARDED_BY(mu_) = false;
  std::thread worker_;  // lint:unguarded(started in ctor; joined exactly once via worker_joined_)
};

}  // namespace gnn4tdl
