#include "src/service/tenant.hpp"

#include <set>
#include <utility>

#include "src/common/error.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::service {

void ServiceConfig::validate() const {
  EBEM_EXPECT(!tenants.empty(), "a service needs at least one registered tenant");
  EBEM_EXPECT(pipeline_width >= 1, "pipeline_width must be >= 1");
  std::set<std::string> names;
  for (const TenantConfig& tenant : tenants) {
    EBEM_EXPECT(!tenant.name.empty(), "tenant names must be non-empty");
    EBEM_EXPECT(names.insert(tenant.name).second,
                "duplicate tenant name '" + tenant.name + "'");
    EBEM_EXPECT(tenant.gpr > 0.0, "tenant gpr must be positive");
    EBEM_EXPECT(tenant.quotas.window_seconds > 0.0, "window_seconds must be positive");
  }
}

std::size_t ServiceConfig::resolved_global_outstanding() const {
  if (max_global_outstanding > 0) return max_global_outstanding;
  std::size_t total = 0;
  for (const TenantConfig& tenant : tenants) total += tenant.quotas.max_outstanding_runs;
  return total;
}

void CostAccount::bill_run(const PhaseReport& run_report, std::size_t elements, bool failed) {
  bill_.merge(run_report);
  elements_billed_.fetch_add(elements, std::memory_order_relaxed);
  (failed ? runs_failed_ : runs_completed_).fetch_add(1, std::memory_order_relaxed);
}

void CostAccount::record_rejection(ErrorCode code) {
  runs_rejected_.fetch_add(1, std::memory_order_relaxed);
  bill_.add_counter(std::string("Rejections: ") + error_code_name(code), 1.0);
}

TenantSession::TenantSession(const TenantConfig& config, par::ThreadPool* shared_pool,
                             std::size_t pipeline_width)
    : config_(config) {
  engine::ExecutionConfig execution;
  if (shared_pool != nullptr) {
    execution.pool = shared_pool;
    execution.num_threads = 0;  // adopt the shared pool's size
  } else {
    execution.num_threads = 1;
  }
  execution.pipeline_width = pipeline_width;
  // Engine-level backstop: admission rejects at the quota before this bound
  // could ever block the submitting thread. Admission outstanding is
  // retired by the run's completion callback, which the scheduler invokes
  // only after it has retired the run itself, so admission outstanding
  // always dominates the scheduler's non-terminal count.
  execution.max_pending_runs = config.quotas.max_outstanding_runs;
  engine_ = std::make_unique<engine::Engine>(execution);

  bem::AnalysisOptions options;
  options.gpr = config.gpr;
  study_ = std::make_unique<engine::Study>(*engine_, options);
}

TenantRegistry::TenantRegistry(const ServiceConfig& config) : config_(config) {
  config_.validate();
  if (config_.num_threads > 1) pool_ = std::make_unique<par::ThreadPool>(config_.num_threads);
  for (const TenantConfig& tenant : config_.tenants) {
    sessions_.emplace(tenant.name, std::make_unique<TenantSession>(tenant, pool_.get(),
                                                                   config_.pipeline_width));
  }
}

TenantSession* TenantRegistry::find(const std::string& name) {
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::vector<TenantSession*> TenantRegistry::sessions() {
  std::vector<TenantSession*> out;
  out.reserve(sessions_.size());
  for (auto& [name, session] : sessions_) out.push_back(session.get());
  return out;
}

bem::BemModel build_model(const ModelSpec& spec) {
  const std::vector<geom::Conductor> conductors = geom::make_rect_grid(spec.grid);
  const geom::Mesh mesh = geom::Mesh::build(conductors);
  return bem::BemModel(mesh, soil::LayeredSoil(spec.layers));
}

}  // namespace ebem::service
