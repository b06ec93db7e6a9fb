#include "src/engine/engine.hpp"

#include <bit>

#include "src/common/hash.hpp"
#include "src/common/timer.hpp"
#include "src/engine/counters.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::engine {

namespace {

[[nodiscard]] std::uint64_t word_of(double value) { return std::bit_cast<std::uint64_t>(value); }

}  // namespace

std::uint64_t physics_fingerprint(const soil::LayeredSoil& soil,
                                  const bem::AssemblyOptions& options) {
  std::uint64_t h = 0x9d7fb3a5c1e42b17ULL;
  h = hash_combine(h, soil.layer_count());
  for (std::size_t c = 0; c < soil.layer_count(); ++c) {
    h = hash_combine(h, word_of(soil.conductivity(c)));
    if (c + 1 < soil.layer_count()) h = hash_combine(h, word_of(soil.interface_depth(c)));
  }
  const bem::IntegratorOptions& integrator = options.integrator;
  h = hash_combine(h, static_cast<std::uint64_t>(integrator.basis));
  h = hash_combine(h, static_cast<std::uint64_t>(integrator.inner));
  h = hash_combine(h, integrator.outer_gauss_points);
  h = hash_combine(h, integrator.inner_gauss_points);
  h = hash_combine(h, static_cast<std::uint64_t>(integrator.segment_eval));
  h = hash_combine(h, word_of(options.series.tolerance));
  h = hash_combine(h, options.series.max_reflections);
  h = hash_combine(h, word_of(options.hankel.tolerance));
  h = hash_combine(h, word_of(options.hankel.lambda_cut));
  h = hash_combine(h, options.hankel.max_panels);
  return h;
}

AssemblyGate::AssemblyGate(Engine& engine, const std::optional<std::uint64_t>& fingerprint,
                           PhaseReport* run_report)
    : engine_(engine) {
  engine.begin_assembly(fingerprint, run_report);
}

AssemblyGate::~AssemblyGate() { engine_.end_assembly(); }

Engine::Engine(const ExecutionConfig& config)
    : config_(config), threads_(config.resolved_threads()) {
  config_.validate();
  if (config_.pool != nullptr) {
    pool_ = config_.pool;
  } else if (threads_ > 1) {
    owned_pool_.emplace(threads_);
    pool_ = &*owned_pool_;
  }
  if (config_.use_congruence_cache) {
    cache_.emplace(config_.congruence_quantum, config_.cache_max_entries);
  }
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
                         const SubmitOptions& overrides, RunCallback on_complete) {
  return scheduler().submit(std::move(model), options, overrides, std::move(on_complete));
}

FactorFuture Engine::submit_factor(bem::BemModel model, const bem::AnalysisOptions& options,
                                   const SubmitOptions& overrides,
                                   FactorCallback on_complete) {
  return scheduler().submit_factor(std::move(model), options, overrides,
                                   std::move(on_complete));
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

void Engine::clear_cache() {
  std::unique_lock lock(gate_mutex_);
  // Never drop entries under a run that is replaying them.
  gate_cv_.wait(lock, [&] { return active_assemblies_ == 0; });
  if (cache_) cache_->clear();
  cache_fingerprint_.reset();
}

void Engine::begin_assembly(const std::optional<std::uint64_t>& fingerprint,
                            PhaseReport* run_report) {
  if (!cache_ || !fingerprint.has_value()) {
    // No shared warm state to keep coherent: admit unconditionally (the
    // counter still balances end_assembly and keeps clear_cache honest).
    const std::scoped_lock lock(gate_mutex_);
    ++active_assemblies_;
    return;
  }
  std::unique_lock lock(gate_mutex_);
  // A matching run joins the in-flight set immediately; a physics change
  // waits for the set to drain, then clears — so entries of the old physics
  // are never dropped (or replayed) mid-assembly.
  const auto admissible = [&] {
    return active_assemblies_ == 0 ||
           (cache_fingerprint_.has_value() && *cache_fingerprint_ == *fingerprint);
  };
  double wait_seconds = 0.0;
  if (!admissible()) {
    const WallTimer wait_timer;
    gate_cv_.wait(lock, admissible);
    wait_seconds = wait_timer.seconds();
  }
  bool dropped = false;
  if (!cache_fingerprint_.has_value() || *cache_fingerprint_ != *fingerprint) {
    // Different physics, same geometry classes would replay wrong blocks:
    // drop the warm entries. The hit/miss counters survive — they are
    // session statistics; per-run deltas are tallied inside each assembly.
    cache_->drop_entries();
    cache_fingerprint_ = *fingerprint;
    dropped = true;
  }
  ++active_assemblies_;
  lock.unlock();
  // Guard-cost accounting, outside the gate lock (the report has its own).
  // Pipelined runs pay into their own report (merged into the session sink
  // on completion); the blocking assemble path pays the session directly.
  PhaseReport& sink = run_report != nullptr ? *run_report : report_;
  if (dropped) sink.add_counter(kCacheDropsCounter, 1.0);
  if (wait_seconds > 0.0) sink.add_counter(kGateWaitSecondsCounter, wait_seconds);
}

void Engine::end_assembly() {
  {
    const std::scoped_lock lock(gate_mutex_);
    --active_assemblies_;
  }
  gate_cv_.notify_all();
}

bem::AssemblyExecution Engine::assembly_execution() {
  bem::AssemblyExecution execution;
  execution.num_threads = threads_;
  execution.pool = config_.backend == bem::Backend::kThreadPool ? pool_ : nullptr;
  execution.schedule = config_.schedule;
  execution.loop = config_.loop;
  execution.backend = config_.backend;
  execution.storage = config_.storage;
  execution.measure_column_costs = config_.measure_column_costs;
  execution.cache = cache_ ? &*cache_ : nullptr;
  return execution;
}

bem::SolveExecution Engine::solve_execution() const {
  return {.pool = pool_,
          .cholesky_block = config_.cholesky_block,
          .matvec_parallel_cutoff = config_.matvec_parallel_cutoff,
          .measure_residual = config_.measure_residual};
}

bem::SolverOptions Engine::solver_options() const {
  return {.kind = config_.solver,
          .cg_tolerance = config_.cg_tolerance,
          .cg_max_iterations = config_.cg_max_iterations};
}

bem::AnalysisExecution Engine::analysis_execution() {
  bem::AnalysisExecution execution;
  execution.assembly = assembly_execution();
  execution.solver = solver_options();
  execution.solve = solve_execution();
  return execution;
}

bem::AssemblyResult Engine::assemble(const bem::BemModel& model,
                                     const bem::AssemblyOptions& options) {
  std::optional<std::uint64_t> fingerprint;
  if (cache_) fingerprint = physics_fingerprint(model.soil(), options);
  bem::AssemblyResult result;
  {
    const AssemblyGate gate(*this, fingerprint);
    result = bem::assemble(model, options, assembly_execution());
  }
  // The matrix's store is created inside this call, so its cumulative
  // counters are exactly this assembly's delta — fold them in like the
  // analyze/factor paths do.
  add_tile_counters(report_, result.matrix_tiles);
  add_compression_counters(report_, result.compression, result.far_field);
  add_ordering_counters(report_, result.ordering_stats);
  return result;
}

std::vector<double> Engine::solve(const la::SymMatrix& matrix, std::span<const double> rhs,
                                  bem::SolveStats* stats) {
  bem::SolveStats local_stats;
  bem::SolveStats* sink = stats != nullptr ? stats : &local_stats;
  bem::SolveExecution execution = solve_execution();
  // The local sink exists only to harvest the pager counters; don't let it
  // trigger the residual check's O(N^2) matvec the caller never asked for.
  if (stats == nullptr) execution.measure_residual = false;
  std::vector<double> x = bem::solve(matrix, rhs, solver_options(), execution, sink);
  // Counted only once the factorization actually happened (the direct path
  // factors exactly once per solve; a throw above counts nothing).
  if (config_.solver == bem::SolverKind::kCholesky) {
    report_.add_counter(kFactorizationsCounter, 1.0);
  }
  // The factor's working store is created and retired inside this call, so
  // its cumulative counters are exactly this solve's delta. The matrix is
  // caller-owned (cumulative across their calls) and not re-counted here.
  add_tile_counters(report_, sink->factor_tiles);
  return x;
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
