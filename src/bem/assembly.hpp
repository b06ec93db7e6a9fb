// Global Galerkin system generation — the paper's dominant cost (Table 6.1)
// and the stage it parallelizes (§6.2).
//
// The element-pair loop is the triangle beta = 0..M-1, alpha = beta..M-1
// ("a triangle of M columns, of which the first one has M rows and the last
// one has 1 row"). Execution modes:
//   * sequential: the parallel outer or inner loop on a single worker;
//   * parallel outer loop: columns are distributed across threads under an
//     OpenMP-style schedule (coarse granularity; the paper's pick);
//   * parallel inner loop: columns run sequentially, the rows of each column
//     are distributed (the lower-granularity alternative of Fig. 6.1).
//
// Every mode runs one *segmented* scheme. A segment is element beta against
// a range of alpha: a column under the outer loop, one schedule chunk of a
// column under the inner loop. A worker adds a segment's elemental blocks
// into its own O(n) buffer, then flushes it into the tiled symmetric matrix
// once, taking each tile's lock once per run of entries in that tile; one
// worker flushes unlocked, and with no pool given the sequential mode runs
// the same code on a one-thread pool, so the two are bitwise equal. Writes
// go through SymMatrix::add, so the in-memory arena and the out-of-core
// spill pager work alike. (Locking each entry instead made 4 threads slower
// than 1 on a warm 220-element grid, where a pair replays in a few hundred
// ns; the seed's two-phase scheme materialized all M(M+1)/2 elemental
// blocks before a serial scatter pass — O(M^2) memory and a serial Amdahl
// term.)
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/bem/clustering.hpp"
#include "src/bem/congruence_cache.hpp"
#include "src/bem/far_field.hpp"
#include "src/bem/integrator.hpp"
#include "src/la/permutation.hpp"
#include "src/la/sym_matrix.hpp"
#include "src/parallel/schedule.hpp"

namespace ebem::par {
class ThreadPool;
}  // namespace ebem::par

namespace ebem::bem {

enum class ParallelLoop {
  kOuter,  ///< distribute the M columns (coarse granularity; paper's pick)
  kInner,  ///< distribute the rows within each column (fine granularity)
};

enum class Backend {
  kThreadPool,  ///< portable std::thread pool with OpenMP-semantics schedules
  kOpenMp,      ///< real OpenMP runtime directives (the paper's mode);
                ///< sequential fallback when built without OpenMP
};

/// Resolved execution plumbing for one assembly: worker resources and the
/// congruence cache are *referenced*, not owned, so repeated assemblies can
/// share warm threads and a warm cache (see engine::Engine, which owns both
/// and keeps one current cache per physics). The default is the serial
/// cache-less reference path.
struct AssemblyExecution {
  std::size_t num_threads = 1;
  /// Externally owned worker pool for Backend::kThreadPool; when set its
  /// thread count takes precedence over num_threads.
  par::ThreadPool* pool = nullptr;
  par::Schedule schedule = par::Schedule::dynamic(1);
  ParallelLoop loop = ParallelLoop::kOuter;
  Backend backend = Backend::kThreadPool;
  /// Storage policy of the assembled matrix (tile size, and the spill
  /// pager's residency budget for out-of-core assembly). The default is the
  /// fully resident in-memory tile arena.
  la::StorageConfig storage;
  /// Record each column's cost for the schedule simulator (bench_paper's
  /// Tables 6.2-6.3 and Fig. 6.1): the worker thread's CPU time per outer-loop
  /// column, so a column is not charged for time its thread spent preempted,
  /// and the wall time of each inner-loop column's parallel region.
  bool measure_column_costs = false;
  /// Congruence cache: non-null integrates each distinct pair geometry once
  /// and replays the 2x2 block for congruent copies (see pair_signature.hpp).
  /// It must be built for the model's soil and the AssemblyOptions passed
  /// alongside; assemble() throws ebem::InvalidArgument otherwise.
  CongruenceCache* cache = nullptr;
};

struct AssemblyResult {
  /// R, dense symmetric positive definite. With `ordering` set the rows and
  /// columns are in the permutation's *internal* (storage) order; without
  /// it they follow the model's DoF numbering as always.
  la::SymMatrix matrix;
  /// nu_j = integral of w_j (paper eq. 4.6) — always in *external* (model)
  /// order; the solve paths gather it through `ordering` when needed.
  std::vector<double> rhs;
  std::vector<double> column_costs;  ///< seconds per outer column, if measured
  std::size_t element_pairs = 0;
  /// Congruence-cache counters of *this assembly alone* (zeros when the
  /// cache is disabled): hits/misses are tallied per looked-up pair inside
  /// the run, so they stay exact even when several pipelined runs share one
  /// warm cache concurrently. `entries` is the shared cache's occupancy
  /// right after this assembly.
  CongruenceCacheStats cache_stats;
  /// Pager counters of the matrix's tile store over this assembly (zeros
  /// except resident-byte gauges for the in-memory backend).
  la::TileStoreStats matrix_tiles;
  /// Low-rank far-field outcome when storage compression is enabled (all
  /// zeros otherwise): the stored-vs-dense byte breakdown of the matrix and
  /// the near/sampled/skipped split of the element-pair bill.
  la::CompressionStats compression;
  FarFieldStats far_field;
  /// The geometric DoF permutation the matrix was stored under, when
  /// storage.compression.ordering == kGeometric (null otherwise). Shared so
  /// downstream handles (FactoredSystem) can outlive this result. Pass it
  /// as SolveExecution::ordering to solve against this matrix.
  std::shared_ptr<const la::Permutation> ordering;
  /// Cluster-tree summary of the ordering (zeros when ordering is null).
  OrderingStats ordering_stats;
};

/// Generate the Galerkin system for the model under the given options and
/// execution plan (default: sequential, no cache).
[[nodiscard]] AssemblyResult assemble(const BemModel& model, const AssemblyOptions& options = {},
                                      const AssemblyExecution& execution = {});

}  // namespace ebem::bem
