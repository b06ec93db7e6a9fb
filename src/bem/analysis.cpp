#include "src/bem/analysis.hpp"

#include "src/common/error.hpp"
#include "src/la/blas1.hpp"

namespace ebem::bem {

AnalysisResult scale_to_gpr(std::span<const double> rhs, std::vector<double> sigma_hat,
                            double gpr) {
  // I_Gamma = integral of sigma over the electrodes = nu . sigma (eq. 2.2),
  // evaluated at the normalized GPR and rescaled.
  const double normalized_current = la::dot(rhs, sigma_hat);
  EBEM_ENSURE(normalized_current > 0.0, "non-positive total leakage current");
  AnalysisResult result;
  result.equivalent_resistance = 1.0 / normalized_current;
  result.total_current = gpr * normalized_current;
  result.sigma = std::move(sigma_hat);
  la::scal(gpr, result.sigma);
  return result;
}

AnalysisResult finish_analysis(AssemblyResult system, std::vector<double> sigma_hat,
                               double gpr) {
  AnalysisResult result = scale_to_gpr(system.rhs, std::move(sigma_hat), gpr);
  result.cache_stats = system.cache_stats;
  // Snapshot after the solve: the matrix store keeps paging through the
  // factor copy-in and the residual matvec, not just through assembly.
  result.matrix_tiles = system.matrix.tile_stats();
  result.compression = system.compression;
  result.far_field = system.far_field;
  result.ordering_stats = system.ordering_stats;
  result.column_costs = std::move(system.column_costs);
  return result;
}

AnalysisResult analyze(const BemModel& model, const AnalysisOptions& options) {
  EBEM_EXPECT(options.gpr > 0.0, "GPR must be positive");
  AssemblyResult system = assemble(model, options.assembly);
  // Normalized problem: R sigma_hat = nu with V_Gamma = 1.
  SolveStats solve_stats;
  std::vector<double> sigma_hat = solve(system.matrix, system.rhs, {}, &solve_stats);
  AnalysisResult result = finish_analysis(std::move(system), std::move(sigma_hat), options.gpr);
  result.solve_stats = solve_stats;
  return result;
}

}  // namespace ebem::bem
