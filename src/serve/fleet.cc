#include "serve/fleet.h"

#include <sstream>
#include <utility>

#include "util/error.h"
#include "util/table.h"

namespace m3dfl::serve {
namespace {

std::string fmt_ms(double seconds) {
  return TablePrinter::fmt(seconds * 1e3, 2);
}

}  // namespace

FleetService::FleetService(registry::ModelRegistry& registry,
                           FleetOptions options)
    : registry_(registry), options_(std::move(options)) {}

FleetService::~FleetService() {
  try {
    shutdown(ShutdownMode::kDrain);
  } catch (...) {
    // Destructor must not throw; shards' own destructors still join.
  }
}

TenantOptions FleetService::tenant_defaults() const {
  TenantOptions tenant;
  tenant.service = options_.service_defaults;
  return tenant;
}

FleetService::Tenant& FleetService::tenant_at(std::int32_t tenant_id) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  M3DFL_REQUIRE(tenant_id >= 0 &&
                    tenant_id < static_cast<std::int32_t>(tenants_.size()),
                "unknown fleet tenant id: " + std::to_string(tenant_id));
  return *tenants_[static_cast<std::size_t>(tenant_id)];
}

std::unique_ptr<FleetService::Epoch> FleetService::make_epoch(
    Tenant& tenant,
    std::shared_ptr<const registry::LoadedModel> model) const {
  auto epoch = std::make_unique<Epoch>();
  ServiceOptions service_options = tenant.options.service;
  service_options.model_generation = model->generation;
  service_options.external_metrics = tenant.metrics.get();
  // Aliasing constructor: the service's framework pointer keeps the whole
  // registry LoadedModel alive, so eviction or a subsequent reload never
  // frees a model that still has an epoch on it.
  std::shared_ptr<const DiagnosisFramework> framework(model,
                                                      &model->framework);
  epoch->service = std::make_unique<DiagnosisService>(std::move(framework),
                                                      service_options);
  epoch->design_id = epoch->service->register_design(tenant.design);
  epoch->model = std::move(model);
  return epoch;
}

bool FleetService::refresh_epoch_locked(Tenant& tenant) {
  std::shared_ptr<const registry::LoadedModel> model;
  try {
    model = registry_.acquire(tenant.options.model, tenant.options.version);
  } catch (const Error&) {
    // Unknown model or failed first load: an existing epoch keeps serving
    // (its shared_ptr pins the old artifact); without one the caller sheds.
    return tenant.epoch != nullptr;
  }
  if (tenant.epoch == nullptr ||
      tenant.epoch->model->generation != model->generation) {
    auto fresh = make_epoch(tenant, std::move(model));
    if (tenant.epoch != nullptr) {
      // Retire, never interrupt: the old epoch finishes its in-flight
      // requests on the old framework and is reaped once quiesced.
      tenant.retired.push_back(std::move(tenant.epoch));
      tenant.metrics->model_reloads.fetch_add(1, std::memory_order_relaxed);
    }
    tenant.epoch = std::move(fresh);
  }
  // Reap retired epochs whose last request resolved; shutdown() joins the
  // worker threads before the service is destroyed.
  for (auto it = tenant.retired.begin(); it != tenant.retired.end();) {
    if ((*it)->service->pending() == 0) {
      (*it)->service->shutdown(ShutdownMode::kDrain);
      it = tenant.retired.erase(it);
    } else {
      ++it;
    }
  }
  return true;
}

std::int32_t FleetService::add_tenant(std::shared_ptr<const Design> design,
                                      TenantOptions options) {
  M3DFL_REQUIRE(design != nullptr, "fleet tenant needs a design");
  M3DFL_REQUIRE(!options.model.empty(),
                "fleet tenant needs a registry model name");
  auto tenant = std::make_unique<Tenant>();
  tenant->design = std::move(design);
  tenant->options = std::move(options);
  tenant->metrics = std::make_unique<Metrics>();
  {
    // Eager first epoch when the model is already published; a failure here
    // is not fatal — submits shed kModelUnavailable until it appears.
    std::lock_guard<std::mutex> lock(tenant->mu);
    refresh_epoch_locked(*tenant);
  }
  std::lock_guard<std::mutex> lock(tenants_mu_);
  tenants_.push_back(std::move(tenant));
  return static_cast<std::int32_t>(tenants_.size()) - 1;
}

std::int32_t FleetService::num_tenants() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return static_cast<std::int32_t>(tenants_.size());
}

std::future<DiagnosisResult> FleetService::reject_now(Tenant& tenant,
                                                      StatusCode status,
                                                      std::string message) {
  DiagnosisResult result;
  result.status = status;
  result.status_message = std::move(message);
  tenant.metrics->requests_submitted.fetch_add(1, std::memory_order_relaxed);
  tenant.metrics->record_status(status);
  if (status == StatusCode::kQuotaExceeded) {
    tenant.metrics->quota_rejections.fetch_add(1, std::memory_order_relaxed);
  }
  std::promise<DiagnosisResult> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

std::future<DiagnosisResult> FleetService::submit(
    std::int32_t tenant_id, FailureLog log,
    const SubmitOptions& submit_options) {
  Tenant& tenant = tenant_at(tenant_id);
  std::lock_guard<std::mutex> lock(tenant.mu);
  M3DFL_REQUIRE(!tenant.shut_down,
                "fleet submit after shutdown (tenant " +
                    std::to_string(tenant_id) + ")");
  if (!refresh_epoch_locked(tenant)) {
    return reject_now(tenant, StatusCode::kModelUnavailable,
                      "no registry model '" + tenant.options.model +
                          "' is loadable yet");
  }
  if (over_quota_locked(tenant)) {
    return reject_now(tenant, StatusCode::kQuotaExceeded,
                      "tenant over max_inflight quota (" +
                          std::to_string(tenant.options.max_inflight) + ")");
  }
  return tenant.epoch->service->submit(tenant.epoch->design_id, std::move(log),
                                       submit_options);
}

bool FleetService::over_quota_locked(const Tenant& tenant) {
  if (tenant.options.max_inflight == 0 || tenant.epoch == nullptr) {
    return false;
  }
  // Quota counts this tenant's in-flight work across the current and all
  // retired epochs — a reload must not double a tenant's effective quota.
  std::uint64_t inflight = tenant.epoch->service->pending();
  for (const auto& old : tenant.retired) inflight += old->service->pending();
  return inflight >= tenant.options.max_inflight;
}

std::optional<std::future<DiagnosisResult>> FleetService::admit(
    std::int32_t tenant_id) {
  Tenant& tenant = tenant_at(tenant_id);
  std::lock_guard<std::mutex> lock(tenant.mu);
  M3DFL_REQUIRE(!tenant.shut_down,
                "fleet admit after shutdown (tenant " +
                    std::to_string(tenant_id) + ")");
  if (!over_quota_locked(tenant)) return std::nullopt;
  return reject_now(tenant, StatusCode::kQuotaExceeded,
                    "tenant over max_inflight quota (" +
                        std::to_string(tenant.options.max_inflight) + ")");
}

DiagnosisResult FleetService::diagnose(std::int32_t tenant_id, FailureLog log,
                                       const SubmitOptions& submit_options) {
  return submit(tenant_id, std::move(log), submit_options).get();
}

void FleetService::resume(std::int32_t tenant_id) {
  Tenant& tenant = tenant_at(tenant_id);
  std::lock_guard<std::mutex> lock(tenant.mu);
  for (auto& old : tenant.retired) old->service->resume();
  if (tenant.epoch != nullptr) tenant.epoch->service->resume();
}

void FleetService::drain() {
  const std::int32_t n = num_tenants();
  for (std::int32_t id = 0; id < n; ++id) {
    Tenant& tenant = tenant_at(id);
    std::lock_guard<std::mutex> lock(tenant.mu);
    for (auto& old : tenant.retired) old->service->drain();
    if (tenant.epoch != nullptr) tenant.epoch->service->drain();
    for (auto& old : tenant.retired) old->service->shutdown();
    tenant.retired.clear();
  }
}

void FleetService::shutdown(ShutdownMode mode) {
  const std::int32_t n = num_tenants();
  for (std::int32_t id = 0; id < n; ++id) {
    Tenant& tenant = tenant_at(id);
    std::lock_guard<std::mutex> lock(tenant.mu);
    if (tenant.shut_down) continue;
    tenant.shut_down = true;
    for (auto& old : tenant.retired) old->service->shutdown(mode);
    tenant.retired.clear();
    if (tenant.epoch != nullptr) tenant.epoch->service->shutdown(mode);
  }
}

DiagnosisService* FleetService::tenant_service(std::int32_t tenant_id) const {
  Tenant& tenant = tenant_at(tenant_id);
  std::lock_guard<std::mutex> lock(tenant.mu);
  return tenant.epoch == nullptr ? nullptr : tenant.epoch->service.get();
}

std::uint64_t FleetService::tenant_generation(std::int32_t tenant_id) const {
  Tenant& tenant = tenant_at(tenant_id);
  std::lock_guard<std::mutex> lock(tenant.mu);
  return tenant.epoch == nullptr ? 0 : tenant.epoch->model->generation;
}

std::size_t FleetService::tenant_retired_epochs(std::int32_t tenant_id) const {
  Tenant& tenant = tenant_at(tenant_id);
  std::lock_guard<std::mutex> lock(tenant.mu);
  return tenant.retired.size();
}

std::int64_t FleetService::quota_rejections(std::int32_t tenant_id) const {
  return tenant_at(tenant_id)
      .metrics->quota_rejections.load(std::memory_order_relaxed);
}

const Metrics& FleetService::tenant_metrics(std::int32_t tenant_id) const {
  return *tenant_at(tenant_id).metrics;
}

std::string FleetService::report() const {
  TablePrinter tenants({"tenant", "model", "gen", "submitted", "ok", "failed",
                        "quota shed", "reloads", "p50 ms", "p95 ms"});
  const std::int32_t n = num_tenants();
  for (std::int32_t id = 0; id < n; ++id) {
    Tenant& tenant = tenant_at(id);
    std::uint64_t generation = 0;
    std::string model;
    {
      std::lock_guard<std::mutex> lock(tenant.mu);
      model = tenant.options.model;
      if (tenant.options.version != registry::ModelRegistry::kLatest) {
        model += '@' + std::to_string(tenant.options.version);
      }
      if (tenant.epoch != nullptr) {
        generation = tenant.epoch->model->generation;
      }
    }
    const Metrics& m = *tenant.metrics;
    tenants.add_row(
        {std::to_string(id), model, std::to_string(generation),
         std::to_string(m.requests_submitted.load()),
         std::to_string(m.requests_completed.load()),
         std::to_string(m.requests_failed.load()),
         std::to_string(m.quota_rejections.load()),
         std::to_string(m.model_reloads.load()),
         fmt_ms(m.end_to_end.quantile_seconds(0.50)),
         fmt_ms(m.end_to_end.quantile_seconds(0.95))});
  }

  TablePrinter reg({"registry counter", "value"});
  reg.add_row({"designs indexed", std::to_string(registry_.designs().size())});
  reg.add_row({"resident models", std::to_string(registry_.resident_count())});
  reg.add_row({"resident bytes", std::to_string(registry_.resident_bytes())});
  reg.add_row({"cold loads", std::to_string(registry_.loads())});
  reg.add_row({"hits", std::to_string(registry_.hits())});
  reg.add_row({"evictions", std::to_string(registry_.evictions())});
  reg.add_row({"hot reloads", std::to_string(registry_.reloads())});
  reg.add_row({"rejected reloads", std::to_string(registry_.reload_failures())});

  std::ostringstream os;
  os << tenants.to_string() << "\n" << reg.to_string();
  return os.str();
}

}  // namespace m3dfl::serve
