// Linear-system solution stage (paper §4.3): direct Cholesky O(N^3/3) or
// the paper's preferred diagonally preconditioned conjugate gradient.
// Both paths parallelize over a worker pool: the blocked Cholesky runs its
// panel solve and trailing update across threads, PCG its matrix-vector
// product — so the solve phase scales alongside the fused assembly instead
// of capping end-to-end speed-up (Amdahl).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/la/cholesky.hpp"
#include "src/la/permutation.hpp"
#include "src/la/sym_matrix.hpp"

namespace ebem::par {
class ThreadPool;
}  // namespace ebem::par

namespace ebem::bem {

enum class SolverKind {
  kCholesky,  ///< direct LL^T (reference; out of range for very large N)
  kPcg,       ///< Jacobi-preconditioned CG (paper's recommendation)
};

/// Resolved execution plan of one solve: the algorithm, its accuracy and
/// its workers. An engine::Engine resolves its ExecutionConfig into one of
/// these once; the default is the serial reference path with the direct
/// solver.
struct SolveExecution {
  /// Referenced, not owned; null (or a single-thread pool) keeps the serial
  /// reference path.
  par::ThreadPool* pool = nullptr;
  SolverKind kind = SolverKind::kCholesky;
  double cg_tolerance = 1e-12;
  std::size_t cg_max_iterations = 0;  ///< 0 = automatic
  /// Direct path only: whether a caller-supplied SolveStats gets the
  /// achieved relative residual. The check costs one O(N^2) matvec — a full
  /// re-page of a spill-backed matrix — so callers that only want the cheap
  /// counters (factor_tiles) turn it off.
  bool measure_residual = true;
  /// DoF ordering the matrix was assembled under (AssemblyResult::ordering),
  /// or null when the matrix follows the model's numbering. When set, `rhs`
  /// is taken in external order, gathered into the matrix's internal order
  /// for the solve, and the solution is scattered back — callers see
  /// external order on both sides, identical to the unordered path.
  const la::Permutation* ordering = nullptr;
};

struct SolveStats {
  std::size_t iterations = 0;  ///< 0 for the direct solver
  double relative_residual = 0.0;
  /// Pager counters of the Cholesky factor's working store (zeros for PCG
  /// and for in-memory factors) — evictions and spill IO of an out-of-core
  /// solve surface here and on the engine's PhaseReport.
  la::TileStoreStats factor_tiles;
};

/// Solve R sigma = nu. Throws if PCG fails to converge.
[[nodiscard]] std::vector<double> solve(const la::SymMatrix& matrix, std::span<const double> rhs,
                                        const SolveExecution& execution = {},
                                        SolveStats* stats = nullptr);

/// The direct path's tail, shared by solve() and the engine's staged
/// factor/solve pipeline: gather `rhs` through execution.ordering, substitute
/// through `factor` (the Cholesky factor of `matrix`), measure the residual
/// when asked, and scatter the solution back to external order.
[[nodiscard]] std::vector<double> substitute(const la::Cholesky& factor,
                                             const la::SymMatrix& matrix,
                                             std::span<const double> rhs,
                                             const SolveExecution& execution,
                                             SolveStats* stats = nullptr);

}  // namespace ebem::bem
