// The single execution contract of an engine::Engine: every knob that
// describes *how* analyses run — worker threads, schedules, backends, the
// congruence-cache policy, the solver choice and its tolerances — in one
// validated struct, configured once per session.
//
// Before the Engine existed these knobs were smeared across four option
// structs (AssemblyOptions, SolverOptions, AnalysisOptions, DesignOptions),
// each carrying its own num_threads/pool pair with subtly different
// semantics; the worst of them — SolverOptions::pool being silently ignored
// whenever num_threads stayed 1 — is exactly the class of contradiction
// validate() now rejects up front.
#pragma once

#include <cstddef>

#include "src/bem/assembly.hpp"
#include "src/bem/congruence_cache.hpp"
#include "src/bem/pair_signature.hpp"
#include "src/bem/solver.hpp"
#include "src/parallel/schedule.hpp"

namespace ebem::par {
class ThreadPool;
}  // namespace ebem::par

namespace ebem::engine {

struct ExecutionConfig {
  // --- parallelism -------------------------------------------------------
  /// Worker count shared by the assembly and solve phases; 1 is the serial
  /// reference path, 0 resolves to the external pool's size (or the
  /// hardware concurrency when no pool is supplied).
  std::size_t num_threads = 1;
  /// Optional externally owned worker pool. When set, num_threads must be 0
  /// (adopt the pool's size) or match it exactly — validate() throws on any
  /// other combination instead of silently ignoring one of the two.
  par::ThreadPool* pool = nullptr;
  par::Schedule schedule = par::Schedule::dynamic(1);
  bem::ParallelLoop loop = bem::ParallelLoop::kOuter;
  bem::Backend backend = bem::Backend::kThreadPool;
  /// Stage executors of the engine's pipelining scheduler — the number of
  /// submitted runs whose stages (assemble / factor / solve) may be in
  /// flight at once. Runs do not own threads: a fixed set of executors pops
  /// ready stages off one queue, so 2 is enough to overlap candidate k+1's
  /// assembly with candidate k's factorization/solve on the shared pool
  /// (the ready queue prefers finishing older runs over starting new ones,
  /// which also bounds how many assembled matrices are alive at once).
  /// Must be >= 1; 1 serializes submitted runs in submission order.
  std::size_t pipeline_width = 2;
  /// Bound on runs submitted but not yet terminal (queued + executing).
  /// 0 keeps the historical unbounded queue; with a bound, submit() blocks
  /// the submitting thread until a run retires — backpressure, so a loop
  /// that submits thousands of scenarios cannot pile up thousands of queued
  /// runs (each queued run holds its model copy, and the ready-queue's
  /// stage preference only bounds *assembled matrices*, not queue entries).
  /// Campaign-style drivers should set this to a small multiple of
  /// pipeline_width; see campaign::Runner, which adds its own result-side
  /// window on top.
  std::size_t max_pending_runs = 0;

  // --- congruence cache --------------------------------------------------
  /// Keep a warm congruence cache across the assemblies the Engine runs:
  /// nearby systems (design ladders, estimation sweeps) replay each other's
  /// elemental blocks. A cache serves one physics (soil + assembly
  /// options); a run with other physics gets a fresh, empty cache.
  bool use_congruence_cache = true;
  double congruence_quantum = bem::kDefaultCongruenceQuantum;
  std::size_t cache_max_entries = bem::CongruenceCache::kDefaultMaxEntries;

  // --- solver ------------------------------------------------------------
  bem::SolverKind solver = bem::SolverKind::kCholesky;
  double cg_tolerance = 1e-12;
  std::size_t cg_max_iterations = 0;  ///< 0 = automatic
  std::size_t cholesky_block = 64;
  /// Serial/parallel crossover of the pooled symmetric matvec (PCG's A*p
  /// and the direct path's residual check): systems smaller than this take
  /// the bitwise-serial walk. The compile-time default
  /// (la::SymMatrix::kParallelCutoff) was measured once on one machine;
  /// this knob lets a session tune the crossover without recompiling.
  std::size_t matvec_parallel_cutoff = la::SymMatrix::kParallelCutoff;
  /// Report the direct solver's achieved relative residual on SolveStats.
  /// The check costs one O(N^2) matvec per solve — under a spill-backed
  /// storage budget that is a full re-page of the matrix — so out-of-core
  /// sessions that don't need the statistic should turn it off.
  bool measure_residual = true;

  // --- matrix storage -----------------------------------------------------
  /// Tile geometry and residency policy of every matrix (and Cholesky
  /// factor) the engine's analyses allocate. The default is the fully
  /// resident in-memory tile arena; setting residency_budget_bytes > 0
  /// selects the file-backed spill pager, capping resident matrix bytes per
  /// store — the out-of-core path for grids beyond single-node memory.
  /// Eviction and spill-IO counters land on the session PhaseReport.
  /// Setting storage.compression.epsilon > 0 instead selects the low-rank
  /// (H-matrix) backend: assembly builds well-separated tile blocks as ACA
  /// U V^T factors accurate to epsilon and skips their exact pair
  /// integrations; compression counters (blocks, stored vs dense bytes,
  /// rank sum, pairs skipped/sampled) land on the session PhaseReport.
  /// Compression and a spill residency budget are mutually exclusive.
  /// Setting storage.compression.ordering = la::DofOrdering::kGeometric
  /// additionally stores each matrix under an RCB geometric DoF clustering
  /// (src/bem/clustering.hpp) — the permutation is applied and undone at
  /// the matrix boundary, results stay in model order, and square grids
  /// whose in-place DoF slabs refuse to compress become compressible;
  /// ordering counters land on the session PhaseReport.
  la::StorageConfig storage;

  // --- instrumentation ---------------------------------------------------
  /// Record per-column assembly costs (schedule-simulator input).
  bool measure_column_costs = false;

  /// Worker count after resolving num_threads == 0 against the pool /
  /// hardware concurrency.
  [[nodiscard]] std::size_t resolved_threads() const;

  /// Throws ebem::InvalidArgument on any internal contradiction (thread /
  /// pool mismatch, non-positive tolerances or quanta). Engine construction
  /// validates exactly once; the config is immutable afterwards.
  void validate() const;
};

}  // namespace ebem::engine
