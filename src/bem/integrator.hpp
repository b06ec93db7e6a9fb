// Elemental Galerkin coefficients R^{beta alpha} and potential influence
// coefficients V_i(x) — paper eqs. (4.3) and (4.5).
//
// Two inner-integration paths:
//  * analytic (default): closed-form segment integrals per image term — the
//    paper's "highly efficient analytical integration techniques"; needs an
//    image-series kernel, i.e. a 1- or 2-layer soil;
//  * Gauss: generic quadrature of any PointKernel, which is what enables
//    3-and-more-layer soils (at the much higher cost the paper warns about)
//    and serves as the accuracy/cost ablation baseline.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "src/bem/element.hpp"
#include "src/soil/hankel_kernel.hpp"
#include "src/soil/image_series.hpp"
#include "src/soil/point_kernel.hpp"

namespace ebem::bem {

class CongruenceCache;

enum class InnerIntegration {
  kAnalytic,    ///< closed-form inner integral (image kernels only)
  kGauss,       ///< plain inner Gauss quadrature (ablation baseline; poor on
                ///< self/near elements where the kernel is near-singular)
  kSubtracted,  ///< singularity subtraction: the local q/r part (with
                ///< q = 1/(2 pi (gamma_b + gamma_c)), exact within a layer
                ///< and across an interface) is integrated in closed form
                ///< and only the smooth remainder is Gauss-quadratured —
                ///< works with any kernel; the multi-layer production path
};

/// Which segment-potential evaluator the analytic path runs. kBatched is the
/// production SIMD path (structure-of-arrays, fused image sweep);
/// kScalarReference is the original per-term, per-point asinh formulation,
/// kept as an independent cross-check and as the bench_kernels "scalar"
/// baseline. The two agree to <= 1e-12 relative at the assembly level.
enum class SegmentEval {
  kBatched,
  kScalarReference,
};

struct IntegratorOptions {
  BasisKind basis = BasisKind::kLinear;
  InnerIntegration inner = InnerIntegration::kAnalytic;
  std::size_t outer_gauss_points = 8;
  std::size_t inner_gauss_points = 8;  ///< used only by InnerIntegration::kGauss
  SegmentEval segment_eval = SegmentEval::kBatched;

  friend bool operator==(const IntegratorOptions&, const IntegratorOptions&) = default;
};

/// Physics and discretization of the Galerkin system — what is integrated
/// (declared next to the integrator options it extends, so a CongruenceCache
/// can be bound to it). How the work is executed (threads, schedules,
/// caches) lives in AssemblyExecution; a single engine::ExecutionConfig
/// resolves to one and is the recommended way to set it up.
struct AssemblyOptions {
  IntegratorOptions integrator;
  soil::SeriesOptions series;
  /// Spectral-kernel controls, used only for 3-and-more-layer soils (where
  /// assembly automatically falls back to the Hankel kernel with inner
  /// Gauss integration). The loose default reflects that quadrature error
  /// dominates the spectral tolerance there.
  soil::HankelOptions hankel{.tolerance = 1e-7};

  friend bool operator==(const AssemblyOptions&, const AssemblyOptions&) = default;
};

/// Up-to-2x2 elemental matrix block (local test DoF x local trial DoF).
struct LocalMatrix {
  std::array<std::array<double, 2>, 2> value{};
};

/// Role-swapped block: by Galerkin reciprocity the transpose of R^{beta
/// alpha} is the block of the reversed ordered pair (see
/// kTransposeSeparationRatio for the numerical caveat).
[[nodiscard]] inline LocalMatrix transposed(const LocalMatrix& block) {
  LocalMatrix t;
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t q = 0; q < 2; ++q) t.value[p][q] = block.value[q][p];
  }
  return t;
}

/// Evaluates elemental coefficients against a fixed soil kernel.
class Integrator {
 public:
  /// The analytic path requires `kernel` to be an ImageKernel; the Gauss
  /// path accepts any PointKernel (throws otherwise at construction).
  Integrator(const soil::PointKernel& kernel, const IntegratorOptions& options);

  /// Galerkin block R^{beta alpha}: field (test) element beta against source
  /// (trial) element alpha, all image terms summed (paper eq. 4.5).
  [[nodiscard]] LocalMatrix element_pair(const BemElement& field,
                                         const BemElement& source) const;

  /// Cache-aware variant: a null `cache` is the plain computation; otherwise
  /// the pair's congruence signature is looked up first and the integration
  /// runs only on a miss (the result is then stored for congruent pairs).
  /// `was_hit`, when non-null, receives whether the block was replayed — the
  /// assembly's per-run hit/miss tally, which stays exact even when several
  /// concurrent runs share the cache (the cache's own counters are
  /// lifetime-cumulative across all of them).
  [[nodiscard]] LocalMatrix element_pair(const BemElement& field, const BemElement& source,
                                         CongruenceCache* cache,
                                         bool* was_hit = nullptr) const;

  /// Batched far-field entry point: Galerkin blocks of one fixed source
  /// (trial) element against many field (test) elements, out[k] =
  /// R^{fields[k], source}. Numerically identical to calling element_pair
  /// per field; the point is the access pattern — with the source fixed,
  /// the per-thread image-frame workspace (built once per source and field
  /// layer) is reused across every field element, which is what makes ACA
  /// row/column sampling cost O(fields) segment evaluations instead of
  /// O(fields x image terms) frame constructions.
  void element_pair_batch(const BemElement& source,
                          std::span<const BemElement* const> fields, LocalMatrix* out) const;

  /// Cache-aware batched entry: each field's congruence signature is looked
  /// up before any sampling, so ACA row/column samples over congruent
  /// geometry replay stored blocks instead of re-integrating — on ordered
  /// grids most of the sampling bill. Misses are integrated with the shared
  /// per-source workspace and inserted for the next congruent pair.
  /// `replayed`, when non-null, is incremented by the number of fields
  /// served from the cache.
  void element_pair_batch(const BemElement& source,
                          std::span<const BemElement* const> fields, LocalMatrix* out,
                          CongruenceCache* cache, std::size_t* replayed = nullptr) const;

  /// Potential influence at point x of source element alpha's local DoFs
  /// (paper eq. 4.3): V(x) = sum_i sigma_i * coefficient_i.
  [[nodiscard]] std::array<double, 2> potential_influence(geom::Vec3 x,
                                                          const BemElement& source) const;

  /// Batched potential influence: source element alpha's local-DoF
  /// coefficients at `count` field points (structure of arrays), all of
  /// which must lie in soil layer `field_layer`. out0[k] / out1[k] equal
  /// potential_influence(point k, source)[0] / [1] bitwise (out1 is zero for
  /// a constant basis). The analytic path builds the source's image sweep
  /// once for the whole batch instead of once per point.
  void potential_influences(const BemElement& source, std::size_t field_layer, const double* xs,
                            const double* ys, const double* zs, std::size_t count, double* out0,
                            double* out1) const;

  [[nodiscard]] const IntegratorOptions& options() const { return options_; }
  [[nodiscard]] const soil::PointKernel& kernel() const { return kernel_; }

 private:
  /// Inner integrals of each local shape function against the kernel for
  /// the given field point, prefactor included.
  [[nodiscard]] std::array<double, 2> inner_integrals(geom::Vec3 field_point,
                                                      const BemElement& source,
                                                      std::size_t field_layer) const;

  /// Batched analytic path of element_pair: the mirrored image segments of
  /// `source` are set up once per (source, layer-pair) and every segment is
  /// evaluated against all outer Gauss points of `field` in one pass,
  /// instead of re-deriving each image for every outer point.
  [[nodiscard]] LocalMatrix element_pair_analytic(const BemElement& field,
                                                  const BemElement& source) const;

  const soil::PointKernel& kernel_;
  const soil::ImageKernel* image_kernel_;  ///< non-null when kernel_ is image-based
  IntegratorOptions options_;
};

}  // namespace ebem::bem
