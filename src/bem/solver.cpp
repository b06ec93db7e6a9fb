#include "src/bem/solver.hpp"

#include "src/common/error.hpp"
#include "src/la/blas1.hpp"
#include "src/la/cg.hpp"

namespace ebem::bem {

namespace {

/// Gather `rhs` into the matrix's internal order (a copy only when an
/// ordering is set); residuals and iteration counts are permutation-invariant.
std::span<const double> internal_rhs(std::span<const double> rhs, const SolveExecution& execution,
                                     std::vector<double>& storage) {
  if (execution.ordering == nullptr) return rhs;
  EBEM_EXPECT(execution.ordering->size() == rhs.size(),
              "SolveExecution::ordering does not match the system size");
  storage = execution.ordering->gather(rhs);
  return storage;
}

std::vector<double> external_solution(std::vector<double> x, const SolveExecution& execution) {
  if (execution.ordering == nullptr) return x;
  return execution.ordering->scatter(x);
}

}  // namespace

std::vector<double> substitute(const la::Cholesky& factor, const la::SymMatrix& matrix,
                               std::span<const double> rhs, const SolveExecution& execution,
                               SolveStats* stats) {
  std::vector<double> gathered;
  const std::span<const double> b = internal_rhs(rhs, execution, gathered);
  std::vector<double> x = factor.solve(b);
  if (stats != nullptr) {
    stats->iterations = 0;
    stats->factor_tiles = factor.tile_stats();
    if (execution.measure_residual) {
      // Report the achieved residual for parity with the iterative path.
      std::vector<double> r(b.begin(), b.end());
      std::vector<double> ax(b.size());
      matrix.multiply(x, ax, execution.pool);
      la::axpy(-1.0, ax, r);
      const double b_norm = la::nrm2(b);
      stats->relative_residual = b_norm > 0.0 ? la::nrm2(r) / b_norm : 0.0;
    }
  }
  return external_solution(std::move(x), execution);
}

std::vector<double> solve(const la::SymMatrix& matrix, std::span<const double> rhs,
                          const SolveExecution& execution, SolveStats* stats) {
  if (execution.kind == SolverKind::kCholesky) {
    // The factor's working store inherits the matrix's storage policy, so a
    // spill-backed system factors out of core with the same budget.
    const la::Cholesky factor(matrix, {.pool = execution.pool, .storage = std::nullopt});
    return substitute(factor, matrix, rhs, execution, stats);
  }

  std::vector<double> gathered;
  la::CgOptions cg_options;
  cg_options.tolerance = execution.cg_tolerance;
  cg_options.max_iterations = execution.cg_max_iterations;
  cg_options.pool = execution.pool;
  la::CgResult result =
      la::conjugate_gradient(matrix, internal_rhs(rhs, execution, gathered), cg_options);
  EBEM_EXPECT(result.converged, "PCG failed to converge");
  if (stats != nullptr) {
    stats->iterations = result.iterations;
    stats->relative_residual = result.relative_residual;
  }
  return external_solution(std::move(result.x), execution);
}

}  // namespace ebem::bem
