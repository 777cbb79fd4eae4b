#include "serve/engine.h"

#include <utility>

#include "common/check.h"

namespace gnn4tdl {

ServingEngine::ServingEngine(const FrozenModel* model, ServingOptions options) {
  GNN4TDL_CHECK(model != nullptr);
  TenantOptions tenant;
  tenant.max_batch = options.max_batch;
  tenant.queue_capacity = options.queue_capacity;
  tenant.slo_ms = options.slo_ms;
  Status added = registry_.AddTenant(kDefaultTenant, model, tenant);
  GNN4TDL_CHECK(added.ok());
  MultiTenantEngineOptions engine_options;
  engine_options.clock = options.clock;
  engine_options.recorder = options.recorder;
  engine_ = std::make_unique<MultiTenantEngine>(&registry_, engine_options);
}

StatusOr<std::future<std::vector<double>>> ServingEngine::Submit(
    std::vector<double> features) {
  return engine_->Submit(kDefaultTenant, std::move(features));
}

StatusOr<SubmitResult> ServingEngine::SubmitTraced(
    std::vector<double> features, uint64_t trace_id) {
  return engine_->SubmitTraced(kDefaultTenant, std::move(features), trace_id);
}

void ServingEngine::Stop() { engine_->Stop(); }

ServeStats ServingEngine::Stats() const { return engine_->Stats(); }

}  // namespace gnn4tdl
