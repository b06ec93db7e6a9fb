// engine::Engine — the long-lived execution context of the library.
//
// The paper's CAD framing is many nearby analyses in a loop: a designer (or
// the automated ladder of cad::search_design) evaluates candidate after
// candidate against the same soil and the same numerics. An Engine owns
// everything those runs should share instead of re-creating per call:
//
//   * one par::ThreadPool, spawned once and reused by assembly and solve;
//   * one current bem::CongruenceCache, so candidate k replays the elemental
//     blocks candidates 1..k-1 already integrated. A cache is built for one
//     physics (soil + assembly options); a run with other physics installs
//     a fresh one, while runs still assembling under the old physics keep
//     theirs until their assembly ends — nothing waits, nothing is dropped
//     under a reader;
//   * one PhaseReport sink accumulating Table 6.1 style timings and the
//     named counters (cache hits, factorizations, solved right-hand sides)
//     across the whole session — thread-safe, so concurrent runs merge in
//     without losing increments;
//   * one engine::Scheduler (created on first use) that pipelines
//     *asynchronous* runs: submit() returns a RunFuture immediately, the
//     run's assemble -> factor -> solve stages are dispatched from a ready
//     queue onto pipeline_width stage executors, and stages of different
//     runs interleave on the shared pool — assembly of candidate k+1
//     overlaps the factorization/solve tail of candidate k.
//
// Configuration happens once, through a validated engine::ExecutionConfig
// that the constructor resolves into one assembly plan and one solve plan;
// every run reads those and holds only its own congruence cache. The
// blocking analyze()/factor() calls are thin submit+get shims over the same
// pipeline, so both paths produce identical numbers by construction.
// bem::analyze stays as the serial reference oracle (a width-1, cache-off
// engine matches it bit for bit); anything that runs more than one analysis
// should hold an Engine (or an engine::Study bound to one) — and anything
// that runs *independent* analyses should submit() them instead of blocking
// one by one.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "src/bem/analysis.hpp"
#include "src/bem/assembly.hpp"
#include "src/bem/congruence_cache.hpp"
#include "src/bem/solver.hpp"
#include "src/common/phase_report.hpp"
#include "src/engine/execution_config.hpp"
#include "src/engine/factored_system.hpp"
#include "src/engine/scheduler.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::engine {

class Engine {
 public:
  /// Validates the config (throws ebem::InvalidArgument on contradictions)
  /// and spawns the worker pool up front.
  explicit Engine(const ExecutionConfig& config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Drains the scheduler first: every submitted run reaches a terminal
  /// state, and every completion callback returns, before the pool and
  /// cache go away.
  ~Engine();

  [[nodiscard]] const ExecutionConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_threads() const { return threads_; }

  /// Shared worker pool; null when the engine runs serially.
  [[nodiscard]] par::ThreadPool* pool() { return pool_; }

  /// Session congruence-cache counters: hits and misses summed over every
  /// completed run (the report's bem::kCacheHitsCounter/kCacheMissesCounter),
  /// entries of the current cache. Zeros when the cache is off.
  [[nodiscard]] bem::CongruenceCacheStats cache_stats() const;

  /// Session-cumulative phase timings and counters. Thread-safe sink:
  /// concurrent pipelined runs merge into it without losing increments.
  [[nodiscard]] PhaseReport& report() { return report_; }
  [[nodiscard]] const PhaseReport& report() const { return report_; }

  // --- asynchronous runs --------------------------------------------------

  /// Submit a full analysis and return immediately. The returned future
  /// carries the AnalysisResult, this run's PhaseReport and its exact
  /// congruence-cache delta. Independent submits pipeline: up to
  /// config().pipeline_width runs have stages in flight at once, sharing
  /// the engine's pool and warm cache. `on_complete` is invoked once when
  /// the run ends (Scheduler::submit has the contract).
  [[nodiscard]] RunFuture submit(bem::BemModel model, const bem::AnalysisOptions& options = {},
                                 RunCallback on_complete = {});

  /// Submit an assemble+factor run; the future yields a FactoredSystem that
  /// answers any number of right-hand sides by substitution only. Always
  /// the blocked Cholesky regardless of config().solver (a FactoredSystem
  /// is by definition a direct-solver handle). The handle borrows this
  /// engine's pool and report — the Engine must outlive it.
  [[nodiscard]] FactorFuture submit_factor(bem::BemModel model,
                                           const bem::AnalysisOptions& options = {},
                                           FactorCallback on_complete = {});

  /// Block until every run submitted so far is terminal (completion
  /// callbacks may still be running; ~Engine waits for those too).
  void drain();

  /// Scheduler lifetime accounting: runs submitted and the peak number of
  /// simultaneously non-terminal runs — what the ExecutionConfig::
  /// max_pending_runs backpressure bound caps. Zeros before the first
  /// submission (the scheduler is created lazily).
  [[nodiscard]] SchedulerStats scheduler_stats();

  // --- blocking calls -----------------------------------------------------

  /// Full analysis (assembly + solve + design parameters) — a thin
  /// submit()+get() shim over the pipeline (the run gets its own copy of
  /// the model), so it interleaves fairly with concurrently submitted
  /// runs. Timings and cache counters accumulate into report(), and
  /// additionally into `run_report` when provided (a caller's per-run view
  /// of the same numbers).
  [[nodiscard]] bem::AnalysisResult analyze(const bem::BemModel& model,
                                            const bem::AnalysisOptions& options = {},
                                            PhaseReport* run_report = nullptr);

  /// Assemble and factor once — the blocking shim of submit_factor().
  [[nodiscard]] FactoredSystem factor(const bem::BemModel& model,
                                      const bem::AnalysisOptions& options = {});

 private:
  friend class Scheduler;

  /// The cache of `soil` under `options`: the current one when it serves
  /// that physics, otherwise a fresh, empty cache that replaces it. Runs
  /// holding the replaced cache keep it alive until they release it. Null
  /// when the cache is off.
  std::shared_ptr<bem::CongruenceCache> cache_for(const soil::LayeredSoil& soil,
                                                  const bem::AssemblyOptions& options);

  /// The lazily created stage scheduler (spawning executor threads only
  /// once something actually submits).
  Scheduler& scheduler();

  ExecutionConfig config_;
  std::size_t threads_;
  std::optional<par::ThreadPool> owned_pool_;
  par::ThreadPool* pool_ = nullptr;
  // The config resolved once: every run assembles under assembly_ (plus its
  // own cache) and solves under solve_ (plus its matrix's ordering).
  bem::AssemblyExecution assembly_;
  bem::SolveExecution solve_;
  PhaseReport report_;
  mutable std::mutex cache_mutex_;
  std::shared_ptr<bem::CongruenceCache> cache_;  ///< current physics' cache

  // Declared last: destroyed first, so the scheduler drains while the pool
  // and cache above are still alive.
  std::mutex scheduler_mutex_;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace ebem::engine
