// Diagonally (Jacobi) preconditioned Conjugate Gradient.
//
// The paper's preferred solver for medium/large systems: "the best results
// have been obtained by a diagonal preconditioned conjugate gradient
// algorithm with assembly of the global matrix" (§4.3).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "src/la/sym_matrix.hpp"

namespace ebem::par {
class ThreadPool;
}  // namespace ebem::par

namespace ebem::la {

/// Matrix-free SPD operator: y = A x plus the diagonal for Jacobi
/// preconditioning. Used by solvers that never form their matrix (the
/// finite-difference validator's 7-point stencil).
struct LinearOperator {
  std::size_t size = 0;
  std::function<void(std::span<const double>, std::span<double>)> apply;
  std::vector<double> diagonal;  ///< empty disables the Jacobi preconditioner
};

struct CgOptions {
  double tolerance = 1e-12;      ///< relative residual ||r|| / ||b||
  std::size_t max_iterations = 0;  ///< 0 means 10 * N
  bool jacobi_preconditioner = true;
  /// Non-owning worker pool: parallelizes the dominant A*p product of the
  /// SymMatrix overload (the O(N) vector updates stay serial). Null = serial.
  /// Systems below SymMatrix::kParallelCutoff take the serial walk.
  par::ThreadPool* pool = nullptr;
};

struct CgResult {
  std::vector<double> x;
  std::size_t iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
};

/// Solve A x = b for SPD A. Never throws on non-convergence; inspect
/// `converged` (BEM matrices are well conditioned after Jacobi scaling).
[[nodiscard]] CgResult conjugate_gradient(const SymMatrix& a, std::span<const double> b,
                                          const CgOptions& options = {});

/// Matrix-free variant.
[[nodiscard]] CgResult conjugate_gradient(const LinearOperator& a, std::span<const double> b,
                                          const CgOptions& options = {});

}  // namespace ebem::la
