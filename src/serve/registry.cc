#include "serve/registry.h"

#include <utility>

namespace gnn4tdl {

Status ModelRegistry::AddTenantLocked(const std::string& name,
                                      const FrozenModel* model,
                                      TenantOptions options) {
  if (name.empty()) {
    return Status::InvalidArgument("tenant name must be non-empty");
  }
  for (const auto& t : tenants_) {
    if (t->name == name) {
      return Status::InvalidArgument("tenant '" + name +
                                     "' is already registered");
    }
  }
  if (options.max_batch == 0) options.max_batch = 1;
  if (options.queue_capacity == 0) options.queue_capacity = 1;
  if (options.weight == 0) options.weight = 1;
  auto tenant = std::make_unique<Tenant>();
  tenant->name = name;
  tenant->model = model;
  tenant->options = options;
  tenants_.push_back(std::move(tenant));
  return Status::OK();
}

Status ModelRegistry::AddTenant(const std::string& name, FrozenModel model,
                                TenantOptions options) {
  MutexLock lock(&mu_);
  auto owned = std::make_unique<FrozenModel>(std::move(model));
  GNN4TDL_RETURN_IF_ERROR(AddTenantLocked(name, owned.get(), options));
  owned_models_.push_back(std::move(owned));
  return Status::OK();
}

Status ModelRegistry::AddTenant(const std::string& name,
                                const FrozenModel* model,
                                TenantOptions options) {
  if (model == nullptr) {
    return Status::InvalidArgument("tenant '" + name + "' has a null model");
  }
  MutexLock lock(&mu_);
  return AddTenantLocked(name, model, options);
}

const Tenant* ModelRegistry::Find(const std::string& name) const {
  MutexLock lock(&mu_);
  for (const auto& t : tenants_) {
    if (t->name == name) return t.get();
  }
  return nullptr;
}

std::vector<const Tenant*> ModelRegistry::Tenants() const {
  MutexLock lock(&mu_);
  std::vector<const Tenant*> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(t.get());
  return out;
}

size_t ModelRegistry::size() const {
  MutexLock lock(&mu_);
  return tenants_.size();
}

}  // namespace gnn4tdl
