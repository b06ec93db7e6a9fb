// engine::Engine — the long-lived execution context of the library.
//
// The paper's CAD framing is many nearby analyses in a loop: a designer (or
// the automated ladder of cad::search_design) evaluates candidate after
// candidate against the same soil and the same numerics. An Engine owns
// everything those runs should share instead of re-creating per call:
//
//   * one par::ThreadPool, spawned once and reused by assembly and solve;
//   * one warm bem::CongruenceCache, so candidate k replays the elemental
//     blocks candidates 1..k-1 already integrated (the cache is dropped
//     automatically when the physics fingerprint changes — deferred, under
//     pipelining, until every in-flight assembly drains);
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
// Configuration happens once, through a validated engine::ExecutionConfig.
// The blocking analyze()/factor() calls are thin submit+get shims over the
// same pipeline, so both paths produce identical numbers by construction.
// The bem:: free functions remain as serial shims; anything that runs more
// than one analysis should hold an Engine (or an engine::Study bound to
// one) instead — and anything that runs *independent* analyses should
// submit() them instead of blocking one by one.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

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

/// Order-dependent hash of everything the elemental blocks depend on besides
/// pair geometry: the soil stack plus integrator/series/Hankel options.
/// Geometry congruence is the cache key's job; this pins the physics the key
/// deliberately leaves out. The scheduler fingerprints every submitted run
/// with it to gate the warm cache.
[[nodiscard]] std::uint64_t physics_fingerprint(const soil::LayeredSoil& soil,
                                                const bem::AssemblyOptions& options);

class Engine;

/// RAII admission to an Engine's cache-coherent assembly phase: the
/// constructor blocks until the run's physics fingerprint is admissible
/// (draining in-flight assemblies and dropping stale cache entries when the
/// physics changed — see Engine::begin_assembly), the destructor releases
/// the slot on every exit path. Shared by Engine::assemble and the
/// scheduler's assemble stage so the active-assembly counter can never go
/// unbalanced.
class AssemblyGate {
 public:
  /// `run_report` (optional) receives the fingerprint-guard cost counters —
  /// cache drops and gate wait seconds — instead of the engine's session
  /// report, so per-run consumers (scheduler futures, campaign rollups) see
  /// the guard cost they actually paid. The scheduler merges run reports
  /// into the session sink on completion, so the totals still converge.
  AssemblyGate(Engine& engine, const std::optional<std::uint64_t>& fingerprint,
               PhaseReport* run_report = nullptr);
  ~AssemblyGate();
  AssemblyGate(const AssemblyGate&) = delete;
  AssemblyGate& operator=(const AssemblyGate&) = delete;

 private:
  Engine& engine_;
};

class Engine {
 public:
  /// Validates the config (throws ebem::InvalidArgument on contradictions)
  /// and spawns the worker pool / cache up front.
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

  /// Warm congruence cache; null when disabled by the config.
  [[nodiscard]] bem::CongruenceCache* cache() { return cache_ ? &*cache_ : nullptr; }
  [[nodiscard]] bem::CongruenceCacheStats cache_stats() const {
    return cache_ ? cache_->stats() : bem::CongruenceCacheStats{};
  }
  /// Drop all warm cache entries (the physics-fingerprint guard does this
  /// automatically; manual calls are only needed to re-measure cold starts).
  /// Waits for in-flight assemblies to drain first — entries are never
  /// dropped under a run that is replaying them.
  void clear_cache();

  /// Session-cumulative phase timings and counters. Thread-safe sink:
  /// concurrent pipelined runs merge into it without losing increments.
  [[nodiscard]] PhaseReport& report() { return report_; }
  [[nodiscard]] const PhaseReport& report() const { return report_; }

  // --- asynchronous runs --------------------------------------------------

  /// Submit a full analysis and return immediately. The returned future
  /// carries the AnalysisResult, this run's PhaseReport and its exact
  /// congruence-cache delta. Independent submits pipeline: up to
  /// config().pipeline_width runs have stages in flight at once, sharing
  /// the engine's pool and warm cache. Per-run `overrides` (storage budget,
  /// residual measurement) are validated here, on the submitting thread.
  /// `on_complete` is invoked once when the run ends (Scheduler::submit has
  /// the contract).
  [[nodiscard]] RunFuture submit(bem::BemModel model, const bem::AnalysisOptions& options = {},
                                 const SubmitOptions& overrides = {},
                                 RunCallback on_complete = {});

  /// Submit an assemble+factor run; the future yields a FactoredSystem that
  /// answers any number of right-hand sides by substitution only. Always
  /// the blocked Cholesky regardless of config().solver (a FactoredSystem
  /// is by definition a direct-solver handle). The handle borrows this
  /// engine's pool and report — the Engine must outlive it.
  [[nodiscard]] FactorFuture submit_factor(bem::BemModel model,
                                           const bem::AnalysisOptions& options = {},
                                           const SubmitOptions& overrides = {},
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

  /// Assemble the Galerkin system against the shared pool and warm cache.
  [[nodiscard]] bem::AssemblyResult assemble(const bem::BemModel& model,
                                             const bem::AssemblyOptions& options = {});

  /// Solve one assembled system under the config's solver policy. This is
  /// the matrix-level entry: `rhs` must be in the matrix's own row order.
  /// For a system assembled under a geometric DoF ordering, pass
  /// AssemblyResult::ordering via bem::solve's SolveExecution (or use
  /// analyze()/factor(), which handle the permutation boundary themselves).
  [[nodiscard]] std::vector<double> solve(const la::SymMatrix& matrix,
                                          std::span<const double> rhs,
                                          bem::SolveStats* stats = nullptr);

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

  /// Resolved per-phase execution plans (what the config means in bem
  /// terms); exposed so benches and tests can drive the low-level entry
  /// points with engine-consistent plumbing. Note: driving bem::assemble
  /// directly with these bypasses the physics-fingerprint cache guard —
  /// keep the physics fixed, or go through Engine::assemble/analyze.
  [[nodiscard]] bem::AssemblyExecution assembly_execution();
  [[nodiscard]] bem::SolveExecution solve_execution() const;
  [[nodiscard]] bem::SolverOptions solver_options() const;
  [[nodiscard]] bem::AnalysisExecution analysis_execution();

 private:
  friend class AssemblyGate;

  /// Admission to the cache-coherent assembly phase (no-op when the cache
  /// is off). A run whose `fingerprint` differs from the cache's current
  /// physics waits until the in-flight assemblies drain, then drops the
  /// stale entries and installs its fingerprint — the deferred clear the
  /// pipelining contract requires. Balanced by end_assembly(); always taken
  /// through the AssemblyGate RAII.
  void begin_assembly(const std::optional<std::uint64_t>& fingerprint, PhaseReport* run_report);
  void end_assembly();

  /// The lazily created stage scheduler (spawning executor threads only
  /// once something actually submits).
  Scheduler& scheduler();

  ExecutionConfig config_;
  std::size_t threads_;
  std::optional<par::ThreadPool> owned_pool_;
  par::ThreadPool* pool_ = nullptr;
  std::optional<bem::CongruenceCache> cache_;
  PhaseReport report_;

  // Cache-coherence gate (see begin_assembly).
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  std::size_t active_assemblies_ = 0;
  std::optional<std::uint64_t> cache_fingerprint_;

  // Declared last: destroyed first, so the scheduler drains while the pool
  // and cache above are still alive.
  std::mutex scheduler_mutex_;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace ebem::engine
