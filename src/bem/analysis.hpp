// End-to-end grounding analysis: mesh -> Galerkin system -> leakage current
// -> design parameters (paper eq. 2.2).
//
// Solves with the normalized GPR V_Gamma = 1 (the paper notes this is not
// restrictive since everything is proportional to the GPR) and rescales the
// reported currents/potentials by the actual GPR.
#pragma once

#include <span>
#include <vector>

#include "src/bem/assembly.hpp"
#include "src/bem/solver.hpp"

namespace ebem::bem {

/// Names of the congruence-cache counters the engine's runs put on their
/// PhaseReports — shared constants so every producer lands on one session
/// total.
inline constexpr const char* kCacheHitsCounter = "Congruence cache hits";
inline constexpr const char* kCacheMissesCounter = "Congruence cache misses";

/// Physics of one analysis: what system to build and at which GPR. The
/// solver choice and all execution state (threads, pools, caches) come from
/// the engine::ExecutionConfig of the engine a run is handed to.
struct AnalysisOptions {
  AssemblyOptions assembly;
  double gpr = 1.0;  ///< Ground Potential Rise V_Gamma [V]

  friend bool operator==(const AnalysisOptions&, const AnalysisOptions&) = default;
};

struct AnalysisResult {
  /// Nodal (linear basis) or per-element (constant basis) leakage current
  /// densities sigma_i [A/m] at the actual GPR.
  std::vector<double> sigma;
  double total_current = 0.0;          ///< I_Gamma [A]
  double equivalent_resistance = 0.0;  ///< R_eq = GPR / I_Gamma [Ohm]
  SolveStats solve_stats;
  std::vector<double> column_costs;    ///< forwarded from assembly, if measured
  CongruenceCacheStats cache_stats;    ///< forwarded from assembly (zeros if disabled)
  la::TileStoreStats matrix_tiles;     ///< matrix-store pager counters from assembly
  la::CompressionStats compression;    ///< far-field compression outcome (zeros if disabled)
  FarFieldStats far_field;             ///< near/sampled/skipped pair split (zeros if disabled)
  OrderingStats ordering_stats;        ///< geometric-ordering summary (zeros if disabled)
};

/// The unit-GPR solution sigma_hat (of R sigma_hat = nu at V_Gamma = 1)
/// scaled to `gpr`: fills sigma, total_current and equivalent_resistance of
/// the result (eq. 2.2; I_Gamma = nu . sigma). Throws if the current is not
/// positive. The one copy of this arithmetic: finish_analysis() and the
/// service's factor-and-solve path both call it.
[[nodiscard]] AnalysisResult scale_to_gpr(std::span<const double> rhs,
                                          std::vector<double> sigma_hat, double gpr);

/// Post-solve tail of an analysis: turn the assembled system plus sigma_hat
/// into the final AnalysisResult — scale_to_gpr() plus the assembly's
/// counters. Shared between analyze() below and the engine scheduler's
/// staged (assemble / factor / solve) pipeline so both paths produce
/// identical numbers by construction.
[[nodiscard]] AnalysisResult finish_analysis(AssemblyResult system,
                                             std::vector<double> sigma_hat, double gpr);

/// Serial reference oracle: assemble -> solve -> finish_analysis on the
/// default (serial, direct, cache-off) execution. Analyses that need
/// threads, a warm cache, another solver or phase timings go through
/// engine::Engine / engine::Study.
[[nodiscard]] AnalysisResult analyze(const BemModel& model, const AnalysisOptions& options = {});

}  // namespace ebem::bem
