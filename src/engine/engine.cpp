#include "src/engine/engine.hpp"

#include <utility>

namespace ebem::engine {

Engine::Engine(const ExecutionConfig& config)
    : config_(config), threads_(config.resolved_threads()) {
  config_.validate();
  if (config_.pool != nullptr) {
    pool_ = config_.pool;
  } else if (threads_ > 1) {
    owned_pool_.emplace(threads_);
    pool_ = &*owned_pool_;
  }
  assembly_ = {.num_threads = threads_,
               .pool = config_.backend == bem::Backend::kThreadPool ? pool_ : nullptr,
               .schedule = config_.schedule,
               .loop = config_.loop,
               .backend = config_.backend,
               .storage = config_.storage,
               .measure_column_costs = config_.measure_column_costs};
  solve_ = {.pool = pool_,
            .kind = config_.solver,
            .cg_tolerance = config_.cg_tolerance,
            .cg_max_iterations = config_.cg_max_iterations,
            .measure_residual = config_.measure_residual};
}

Engine::~Engine() {
  // unique_ptr order alone would do (scheduler_ is declared last), but be
  // explicit: the scheduler's destructor drains every submitted run while
  // the pool and cache are still alive.
  scheduler_.reset();
}

Scheduler& Engine::scheduler() {
  const std::scoped_lock lock(scheduler_mutex_);
  if (scheduler_ == nullptr) {
    scheduler_ =
        std::make_unique<Scheduler>(*this, config_.pipeline_width, config_.max_pending_runs);
  }
  return *scheduler_;
}

SchedulerStats Engine::scheduler_stats() {
  const std::scoped_lock lock(scheduler_mutex_);
  return scheduler_ != nullptr ? scheduler_->stats() : SchedulerStats{};
}

RunFuture Engine::submit(bem::BemModel model, const bem::AnalysisOptions& options,
                         RunCallback on_complete) {
  return scheduler().submit(std::move(model), options, std::move(on_complete));
}

FactorFuture Engine::submit_factor(bem::BemModel model, const bem::AnalysisOptions& options,
                                   FactorCallback on_complete) {
  return scheduler().submit_factor(std::move(model), options, std::move(on_complete));
}

void Engine::drain() {
  // Snapshot the pointer, then drain unlocked: holding scheduler_mutex_
  // through the drain would park concurrent submit() callers for the full
  // remaining wall time of every in-flight run. The scheduler itself only
  // dies with the Engine, so the unlocked call is safe.
  Scheduler* scheduler = nullptr;
  {
    const std::scoped_lock lock(scheduler_mutex_);
    scheduler = scheduler_.get();
  }
  if (scheduler != nullptr) scheduler->drain();
}

bem::CongruenceCacheStats Engine::cache_stats() const {
  bem::CongruenceCacheStats stats{
      .hits = static_cast<std::size_t>(report_.counter(bem::kCacheHitsCounter)),
      .misses = static_cast<std::size_t>(report_.counter(bem::kCacheMissesCounter))};
  const std::scoped_lock lock(cache_mutex_);
  if (cache_ != nullptr) stats.entries = cache_->entries();
  return stats;
}

std::shared_ptr<bem::CongruenceCache> Engine::cache_for(const soil::LayeredSoil& soil,
                                                        const bem::AssemblyOptions& options) {
  if (!config_.use_congruence_cache) return nullptr;
  // Declared before the lock, so a replaced cache whose last holder was the
  // engine is freed after the lock is released.
  std::shared_ptr<bem::CongruenceCache> replaced;
  const std::scoped_lock lock(cache_mutex_);
  if (cache_ == nullptr || !cache_->serves(soil, options)) {
    replaced = std::exchange(cache_, std::make_shared<bem::CongruenceCache>(soil, options));
  }
  return cache_;
}

bem::AnalysisResult Engine::analyze(const bem::BemModel& model,
                                    const bem::AnalysisOptions& options,
                                    PhaseReport* run_report) {
  // The copy is O(M); the run's assembly is O(M^2).
  RunFuture future = submit(model, options);
  bem::AnalysisResult result = future.take();
  if (run_report != nullptr) run_report->merge(future.report());
  return result;
}

FactoredSystem Engine::factor(const bem::BemModel& model, const bem::AnalysisOptions& options) {
  return submit_factor(model, options).take();
}

}  // namespace ebem::engine
