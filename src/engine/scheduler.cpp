#include "src/engine/scheduler.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/timer.hpp"
#include "src/engine/counters.hpp"
#include "src/engine/engine.hpp"
#include "src/la/cholesky.hpp"

namespace ebem::engine {

namespace detail {

/// One submitted run. Stage products are only ever touched by the single
/// executor running the run's current stage (a run has at most one ready or
/// executing stage at any time), so they need no locking of their own; the
/// mutex/cv pair orders the status handshake with the futures.
struct RunState {
  explicit RunState(bem::BemModel input) : model(std::move(input)) {}

  // Immutable after submit().
  bool factor_only = false;
  bem::BemModel model;
  bem::AnalysisOptions options;
  std::uint64_t sequence = 0;
  Engine* engine = nullptr;
  /// Set before the run is queued; taken and called once by finish_run.
  Completion on_complete;

  /// The engine's cache for this run's physics (null when the cache is
  /// off); released when the assembly ends, so a cache the engine has since
  /// replaced is freed with its last assembly, not with the last future.
  std::shared_ptr<bem::CongruenceCache> cache;

  // Stage products, handed from stage to stage.
  std::optional<bem::AssemblyResult> assembled;
  std::optional<la::Cholesky> factor;

  // Outputs.
  std::optional<bem::AnalysisResult> analysis;
  std::optional<FactoredSystem> factored;
  PhaseReport report;
  bem::CongruenceCacheStats cache_delta;
  std::exception_ptr error;

  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  RunStatus status = RunStatus::kQueued;
};

}  // namespace detail

using detail::RunState;

namespace {

constexpr int kStageAssemble = 0;
constexpr int kStageFactor = 1;
constexpr int kStageSolve = 2;

/// Heap order of the ready-queue: a later stage beats an earlier one (finish
/// runs before starting new assemblies), ties go to the older run — which is
/// what keeps results flowing out in submission order and bounds the number
/// of assembled matrices alive to ~width.
constexpr auto task_before = [](const auto& a, const auto& b) {
  if (a.stage != b.stage) return a.stage < b.stage;
  return a.run->sequence > b.run->sequence;
};

[[nodiscard]] bool is_terminal(RunStatus status) {
  return status == RunStatus::kDone || status == RunStatus::kFailed ||
         status == RunStatus::kCancelled;
}

[[nodiscard]] RunStatus status_of(const RunState& run) {
  const std::scoped_lock lock(run.mutex);
  return run.status;
}

void wait_terminal(const RunState& run) {
  std::unique_lock lock(run.mutex);
  run.cv.wait(lock, [&] { return is_terminal(run.status); });
}

/// Wait, then leave the run locked-in as kDone or throw its error.
void wait_success(const RunState& run, const char* what) {
  std::unique_lock lock(run.mutex);
  run.cv.wait(lock, [&] { return is_terminal(run.status); });
  if (run.status == RunStatus::kFailed) std::rethrow_exception(run.error);
  EBEM_EXPECT(run.status != RunStatus::kCancelled,
              std::string(what) + ": the run was cancelled before it started");
}

bool cancel_run(RunState& run) {
  {
    const std::scoped_lock lock(run.mutex);
    if (run.status == RunStatus::kQueued) {
      run.status = RunStatus::kCancelled;
    }
    if (run.status != RunStatus::kCancelled) return false;
  }
  run.cv.notify_all();
  return true;
}

void stage_assemble(RunState& run, const bem::AssemblyExecution& plan) {
  WallTimer wall;
  CpuTimer cpu;
  bem::AssemblyExecution execution = plan;
  execution.cache = run.cache.get();
  bem::AssemblyResult assembled = bem::assemble(run.model, run.options.assembly, execution);
  run.report.add(Phase::kMatrixGeneration, wall.seconds(), cpu.seconds());
  if (run.cache != nullptr) {
    run.cache.reset();
    // The assembly tallied its own lookups, so this is exact even with other
    // runs hitting the shared cache concurrently.
    run.cache_delta = assembled.cache_stats;
    run.report.add_counter(bem::kCacheHitsCounter, static_cast<double>(run.cache_delta.hits));
    run.report.add_counter(bem::kCacheMissesCounter,
                           static_cast<double>(run.cache_delta.misses));
  }
  run.assembled = std::move(assembled);
}

void stage_factor(RunState& run, const bem::SolveExecution& plan) {
  WallTimer wall;
  CpuTimer cpu;
  run.factor.emplace(run.assembled->matrix,
                     la::CholeskyOptions{.pool = plan.pool, .storage = std::nullopt});
  run.report.add(Phase::kLinearSolve, wall.seconds(), cpu.seconds());
  run.report.add_counter(kFactorizationsCounter, 1.0);
  if (run.factor_only) {
    Engine& engine = *run.engine;
    run.factored.emplace(std::move(*run.factor), std::move(run.assembled->rhs), engine.pool(),
                         &engine.report(), run.assembled->ordering);
    // Matrix-store counters cover assembly plus the factor copy-in; the
    // factor store keeps paging for the handle's lifetime and is counted at
    // this snapshot.
    add_tile_counters(run.report, run.assembled->matrix.tile_stats());
    add_tile_counters(run.report, run.factored->factor().tile_stats());
    add_compression_counters(run.report, run.assembled->compression, run.assembled->far_field);
    add_ordering_counters(run.report, run.assembled->ordering_stats);
    run.factor.reset();
    run.assembled.reset();
  }
}

void stage_solve(RunState& run, bem::SolveExecution plan) {
  bem::AssemblyResult& system = *run.assembled;
  WallTimer wall;
  CpuTimer cpu;
  bem::SolveStats stats;
  plan.ordering = system.ordering.get();
  // The direct path substitutes through the factor stage's L — the tail of
  // the blocking solve, split at the factorization so the O(N^3) part
  // pipelined separately; the iterative path had no factor stage.
  std::vector<double> sigma_hat;
  if (run.factor.has_value()) {
    sigma_hat = bem::substitute(*run.factor, system.matrix, system.rhs, plan, &stats);
  } else {
    sigma_hat = bem::solve(system.matrix, system.rhs, plan, &stats);
  }
  run.report.add(Phase::kLinearSolve, wall.seconds(), cpu.seconds());

  wall.reset();
  cpu.reset();
  bem::AnalysisResult result =
      bem::finish_analysis(std::move(system), std::move(sigma_hat), run.options.gpr);
  result.solve_stats = stats;
  run.report.add(Phase::kResultsStorage, wall.seconds(), cpu.seconds());
  add_tile_counters(run.report, result.matrix_tiles);
  add_tile_counters(run.report, result.solve_stats.factor_tiles);
  add_compression_counters(run.report, result.compression, result.far_field);
  add_ordering_counters(run.report, result.ordering_stats);
  run.factor.reset();
  run.assembled.reset();
  run.analysis = std::move(result);
}

}  // namespace

// ------------------------------------------------------------- futures ---

bool FutureBase::ready() const {
  EBEM_EXPECT(valid(), "ready() on an empty run future");
  return is_terminal(status_of(*state_));
}

RunStatus FutureBase::status() const {
  EBEM_EXPECT(valid(), "status() on an empty run future");
  return status_of(*state_);
}

void FutureBase::wait() const {
  EBEM_EXPECT(valid(), "wait() on an empty run future");
  wait_terminal(*state_);
}

const PhaseReport& FutureBase::report() const {
  EBEM_EXPECT(valid(), "report() on an empty run future");
  wait_terminal(*state_);
  return state_->report;
}

const bem::CongruenceCacheStats& FutureBase::cache_delta() const {
  EBEM_EXPECT(valid(), "cache_delta() on an empty run future");
  wait_terminal(*state_);
  return state_->cache_delta;
}

bool FutureBase::cancel() const {
  EBEM_EXPECT(valid(), "cancel() on an empty run future");
  return cancel_run(*state_);
}

const bem::AnalysisResult& RunFuture::get() const {
  EBEM_EXPECT(valid(), "get() on an empty RunFuture");
  wait_success(*state_, "RunFuture::get()");
  EBEM_EXPECT(state_->analysis.has_value(),
              "RunFuture::get(): result already taken — take() consumes it for every copy "
              "of the future");
  return *state_->analysis;
}

bem::AnalysisResult RunFuture::take() {
  EBEM_EXPECT(valid(), "take() on an empty RunFuture");
  wait_success(*state_, "RunFuture::take()");
  EBEM_EXPECT(state_->analysis.has_value(), "RunFuture::take(): result already taken");
  bem::AnalysisResult result = std::move(*state_->analysis);
  state_->analysis.reset();
  return result;
}

FactoredSystem FactorFuture::take() {
  EBEM_EXPECT(valid(), "take() on an empty FactorFuture");
  wait_success(*state_, "FactorFuture::take()");
  EBEM_EXPECT(state_->factored.has_value(), "FactorFuture::take(): result already taken");
  FactoredSystem system = std::move(*state_->factored);
  state_->factored.reset();
  return system;
}

// ----------------------------------------------------------- scheduler ---

Scheduler::Scheduler(Engine& engine, std::size_t width, std::size_t max_pending)
    : engine_(engine), max_pending_(max_pending) {
  EBEM_EXPECT(width >= 1, "Scheduler needs at least one stage executor");
  executors_.reserve(width);
  for (std::size_t i = 0; i < width; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

Scheduler::~Scheduler() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  // Executors drain the remaining queue before exiting, so every submitted
  // run reaches a terminal state (and its callback has run) and no future
  // waits forever.
  ready_cv_.notify_all();
  for (std::thread& executor : executors_) executor.join();
}

std::shared_ptr<RunState> Scheduler::make_run(bem::BemModel model,
                                              const bem::AnalysisOptions& options, bool factor_only,
                                              detail::Completion on_complete) {
  // Everything that can be rejected is rejected here, on the submitting
  // thread — never on an executor mid-pipeline.
  EBEM_EXPECT(options.gpr > 0.0, "GPR must be positive");

  auto run = std::make_shared<RunState>(std::move(model));
  run->factor_only = factor_only;
  run->options = options;
  // Taken at submit, so which cache a run replays follows submission order,
  // not which executor happens to start its assembly first.
  run->cache = engine_.cache_for(run->model.soil(), options.assembly);
  run->engine = &engine_;
  run->on_complete = std::move(on_complete);

  {
    std::unique_lock lock(mutex_);
    // Backpressure: at the bound, park the submitting thread until a run
    // retires. Executors never submit, so a waiting submitter cannot stall
    // the drain that frees its slot.
    if (max_pending_ > 0) {
      submit_cv_.wait(lock, [&] { return outstanding_ < max_pending_; });
    }
    run->sequence = next_sequence_++;
    ++submitted_;
    ++outstanding_;
    peak_outstanding_ = std::max(peak_outstanding_, outstanding_);
    ready_.push_back({run, kStageAssemble});
    std::push_heap(ready_.begin(), ready_.end(), task_before);
  }
  ready_cv_.notify_one();
  return run;
}

SchedulerStats Scheduler::stats() const {
  const std::scoped_lock lock(mutex_);
  return {.submitted = submitted_, .peak_outstanding = peak_outstanding_};
}

template <class Future>
detail::Completion Scheduler::completion(std::function<void(Future)> callback) {
  if (!callback) return {};
  return [callback = std::move(callback)](std::shared_ptr<RunState> run) {
    callback(Future(std::move(run)));
  };
}

RunFuture Scheduler::submit(bem::BemModel model, const bem::AnalysisOptions& options,
                            RunCallback on_complete) {
  return RunFuture(make_run(std::move(model), options, /*factor_only=*/false,
                            completion(std::move(on_complete))));
}

FactorFuture Scheduler::submit_factor(bem::BemModel model, const bem::AnalysisOptions& options,
                                      FactorCallback on_complete) {
  // The handles are direct-solver by definition; the configured solver
  // policy governs analysis runs only (same contract as Engine::factor).
  return FactorFuture(make_run(std::move(model), options, /*factor_only=*/true,
                               completion(std::move(on_complete))));
}

void Scheduler::drain() {
  std::unique_lock lock(mutex_);
  drained_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void Scheduler::enqueue(Task task) {
  {
    const std::scoped_lock lock(mutex_);
    ready_.push_back(std::move(task));
    std::push_heap(ready_.begin(), ready_.end(), task_before);
  }
  ready_cv_.notify_one();
}

void Scheduler::executor_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      ready_cv_.wait(lock, [&] { return stopping_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stopping and nothing left to drain
      std::pop_heap(ready_.begin(), ready_.end(), task_before);
      task = std::move(ready_.back());
      ready_.pop_back();
    }
    execute_stage(task);
  }
}

void Scheduler::execute_stage(const Task& task) {
  RunState& run = *task.run;
  if (task.stage == kStageAssemble) {
    // First stage: claim the run (or honor a cancel that won the race).
    bool cancelled = false;
    {
      const std::scoped_lock lock(run.mutex);
      cancelled = run.status == RunStatus::kCancelled;
      if (!cancelled) run.status = RunStatus::kRunning;
    }
    if (cancelled) {
      finish_run(task.run, RunStatus::kCancelled);
      return;
    }
  }

  try {
    switch (task.stage) {
      case kStageAssemble:
        stage_assemble(run, engine_.assembly_);
        break;
      case kStageFactor:
        stage_factor(run, engine_.solve_);
        break;
      default:
        stage_solve(run, engine_.solve_);
        break;
    }
  } catch (...) {
    run.error = std::current_exception();
    finish_run(task.run, RunStatus::kFailed);
    return;
  }

  int next = -1;
  if (task.stage == kStageAssemble) {
    const bool direct = engine_.solve_.kind == bem::SolverKind::kCholesky;
    next = (run.factor_only || direct) ? kStageFactor : kStageSolve;
  } else if (task.stage == kStageFactor && !run.factor_only) {
    next = kStageSolve;
  }
  if (next < 0) {
    finish_run(task.run, RunStatus::kDone);
  } else {
    enqueue({task.run, next});
  }
}

void Scheduler::finish_run(const std::shared_ptr<RunState>& run, RunStatus status) {
  // Session accounting only for completed runs — the blocking path never
  // merged a partially executed run's timings either.
  if (status == RunStatus::kDone) engine_.report().merge(run->report);
  {
    const std::scoped_lock lock(run->mutex);
    run->status = status;
  }
  run->cv.notify_all();
  {
    const std::scoped_lock lock(mutex_);
    retire_locked();
  }
  // Last, outside every lock: the run is terminal and retired, so the
  // callback may read its future or release the future's owner. Taking it
  // out of the run drops its captures when it returns.
  if (const detail::Completion callback = std::exchange(run->on_complete, nullptr)) {
    callback(run);
  }
}

void Scheduler::retire_locked() {
  --outstanding_;
  if (outstanding_ == 0) drained_cv_.notify_all();
  if (max_pending_ > 0) submit_cv_.notify_one();
}

}  // namespace ebem::engine
