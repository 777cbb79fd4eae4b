#pragma once

#include <future>
#include <memory>
#include <vector>

#include "common/status.h"
#include "obs/clock.h"
#include "serve/frozen_model.h"
#include "serve/registry.h"
#include "serve/tenant_engine.h"

namespace gnn4tdl {

/// Options for ServingEngine.
struct ServingOptions {
  /// Most rows one batch takes from the queue (see TenantOptions).
  size_t max_batch = 16;
  /// Submissions beyond this many queued rows are rejected with
  /// kResourceExhausted instead of growing the queue without bound.
  size_t queue_capacity = 4096;
  /// Time source for latency stamping; null means obs::RealClock(). Tests
  /// inject an obs::FakeClock for deterministic latency assertions.
  const obs::Clock* clock = nullptr;
  /// Tenant SLO used for flight-recorder tail sampling (total latency above
  /// this retains the request's span subtree).
  double slo_ms = 50.0;
  /// Flight-recorder policy, passed through to the tenant engine.
  obs::FlightRecorderOptions recorder;
};

/// Micro-batching scoring front-end over one FrozenModel — the single-tenant
/// convenience wrapper around MultiTenantEngine: the model is registered as
/// the sole tenant ("default") and every Submit lands on its queue, so this
/// class exercises exactly the same batching worker, admission control, and
/// accounting as a multi-tenant deployment. See tenant_engine.h for the
/// batching/threading/observability contract, and ModelRegistry +
/// MultiTenantEngine for hosting several models per process.
class ServingEngine {
 public:
  /// The tenant name the wrapped model is registered under.
  static constexpr const char* kDefaultTenant = "default";

  explicit ServingEngine(const FrozenModel* model, ServingOptions options = {});

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueues one featurized row (length feature_dim()). The future resolves
  /// to the row's logits (length num_outputs()); scoring errors surface
  /// through the future. Queue-capacity rejections return typed
  /// kResourceExhausted backpressure (see MultiTenantEngine::Submit for the
  /// full code contract) instead of poisoning the future.
  [[nodiscard]] StatusOr<std::future<std::vector<double>>> Submit(
      std::vector<double> features);

  /// Submit with request-scoped tracing — see MultiTenantEngine::SubmitTraced.
  [[nodiscard]] StatusOr<SubmitResult> SubmitTraced(
      std::vector<double> features, uint64_t trace_id = 0);

  /// Drains the queue and joins the worker. Idempotent; the destructor calls
  /// it.
  void Stop();

  ServeStats Stats() const;

  /// The wrapped engine's flight recorder (request digests + retained
  /// SLO-breach traces).
  const obs::FlightRecorder& recorder() const { return engine_->recorder(); }

 private:
  ModelRegistry registry_;
  /// unique_ptr: the engine snapshots the registry at construction, so the
  /// registry member must be fully populated first.
  std::unique_ptr<MultiTenantEngine> engine_;
};

}  // namespace gnn4tdl
