#include "src/la/cg.hpp"

#include <cmath>

#include "src/common/error.hpp"
#include "src/la/blas1.hpp"

namespace ebem::la {

CgResult conjugate_gradient(const LinearOperator& a, std::span<const double> b,
                            const CgOptions& options) {
  const std::size_t n = a.size;
  EBEM_EXPECT(b.size() == n, "right-hand-side size mismatch");
  CgResult result;
  result.x.assign(n, 0.0);
  if (n == 0) {
    result.converged = true;
    return result;
  }
  EBEM_EXPECT(static_cast<bool>(a.apply), "operator has no apply function");

  std::vector<double> inv_diag(n, 1.0);
  if (options.jacobi_preconditioner && !a.diagonal.empty()) {
    EBEM_EXPECT(a.diagonal.size() == n, "diagonal size mismatch");
    for (std::size_t i = 0; i < n; ++i) {
      EBEM_EXPECT(a.diagonal[i] > 0.0, "Jacobi preconditioner requires a positive diagonal");
      inv_diag[i] = 1.0 / a.diagonal[i];
    }
  }

  std::vector<double> r(b.begin(), b.end());  // r = b - A*0
  std::vector<double> z(n), p(n), ap(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  p = z;

  const double b_norm = nrm2(b);
  if (b_norm == 0.0) {
    result.converged = true;
    return result;
  }

  double rz = dot(r, z);
  const std::size_t max_iters =
      options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    a.apply(p, ap);
    const double p_ap = dot(p, ap);
    EBEM_EXPECT(p_ap > 0.0, "matrix is not positive definite in CG");
    const double alpha = rz / p_ap;
    axpy(alpha, p, result.x);
    axpy(-alpha, ap, r);
    result.iterations = iter + 1;
    result.relative_residual = nrm2(r) / b_norm;
    if (result.relative_residual < options.tolerance) {
      result.converged = true;
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;
}

CgResult conjugate_gradient(const SymMatrix& a, std::span<const double> b,
                            const CgOptions& options) {
  LinearOperator op;
  op.size = a.size();
  op.apply = [&a, pool = options.pool](std::span<const double> x, std::span<double> y) {
    a.multiply(x, y, pool);
  };
  if (options.jacobi_preconditioner) op.diagonal = a.diagonal();
  return conjugate_gradient(op, b, options);
}

}  // namespace ebem::la
