#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/frozen_model.h"

namespace gnn4tdl {

/// Per-tenant serving policy: batch cap, admission bound, scheduling
/// weight, and the latency objective reports are judged against.
struct TenantOptions {
  /// Most rows one batch takes from this tenant's queue. The worker never
  /// waits for a batch to fill: it takes what is queued when it is free.
  size_t max_batch = 16;
  /// Ignored. Declared only because the benchmark's tenant specs still assign
  /// it; it goes when those specs are next changed.
  double deadline_ms = 2.0;
  /// Admission bound: submissions beyond this many queued rows are rejected
  /// with kResourceExhausted instead of growing the queue without bound.
  size_t queue_capacity = 4096;
  /// Weighted-round-robin share. A tenant with weight 2 closes (up to) twice
  /// as many batches per scheduling round as a weight-1 tenant when both have
  /// work ready. Zero is treated as 1.
  size_t weight = 1;
  /// End-to-end latency objective; TenantLatencyFractionBelow and the load
  /// harness report attainment against it. Accounting only — scheduling never
  /// reads it.
  double slo_ms = 50.0;
};

/// One registered tenant: a stable name, the model serving its traffic, and
/// its policy. Pointers returned by ModelRegistry stay valid for the
/// registry's lifetime.
struct Tenant {
  std::string name;
  const FrozenModel* model = nullptr;
  TenantOptions options;
};

/// Process-wide model hosting: many FrozenModels, one per tenant, behind one
/// registry. Tenants are keyed by name; each keeps its own serving policy, so
/// one process can serve e.g. an f32 low-latency tenant next to an f64
/// batch-heavy one (per-tenant precision comes from the v2 artifact or a
/// load-time override — see FrozenModelOptions).
///
/// Models may be registered owned (the registry keeps them alive) or borrowed
/// (caller guarantees lifetime — how ServingEngine wraps its single model).
/// Registration is mutex-guarded, but the intended protocol is: register all
/// tenants, then construct the MultiTenantEngine — the engine snapshots the
/// tenant list at construction and never sees later additions.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers a tenant owning its model. Duplicate names and empty names are
  /// rejected; a zero weight is bumped to 1, zero max_batch/queue_capacity
  /// behave like ServingOptions (bumped to 1).
  [[nodiscard]] Status AddTenant(const std::string& name, FrozenModel model,
                                 TenantOptions options = {});
  /// Registers a tenant borrowing `model`, which must outlive the registry.
  [[nodiscard]] Status AddTenant(const std::string& name,
                                 const FrozenModel* model,
                                 TenantOptions options = {});

  /// Null when no tenant has that name.
  const Tenant* Find(const std::string& name) const;
  /// All tenants in registration order (the WRR scan order).
  std::vector<const Tenant*> Tenants() const;
  size_t size() const;

 private:
  Status AddTenantLocked(const std::string& name, const FrozenModel* model,
                         TenantOptions options) GNN4TDL_REQUIRES(mu_);

  mutable Mutex mu_;
  /// unique_ptr for pointer stability across vector growth.
  std::vector<std::unique_ptr<Tenant>> tenants_ GNN4TDL_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<FrozenModel>> owned_models_
      GNN4TDL_GUARDED_BY(mu_);
};

}  // namespace gnn4tdl
