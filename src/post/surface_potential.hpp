// Potential evaluation at arbitrary points once the leakage current is
// known — paper eq. (4.2): V(x) = sum_i sigma_i V_i(x).
//
// Drawing the earth-surface potential contours of Figs. 5.2/5.4 and the
// touch/step safety patches needs this at hundreds to thousands of points;
// the paper names it the second massively parallelizable stage. The batched
// at(points) splits the points into chunks that each lie in one soil layer
// and runs the chunks in parallel, elements outer within a chunk. Each point
// sums sigma_i V_i in element order, then local-DoF order — the order of the
// pointwise at(x), which stays as the oracle. The influences come from:
//  * without a congruence cache, one image sweep per source element and
//    chunk, evaluated against all its points in one SoA kernel call; values
//    equal at(x) bitwise. The faster path on irregular geometry.
//  * with a cache, one integration per congruence class (a regular grid's
//    safety patch has ~28x fewer classes than pairs). Each (point, element)
//    influence is keyed from two frames — the elements' built once per
//    call, each point's once in its chunk — and handed to
//    Integrator::potential_influences(keys, cache). A miss integrates the
//    geometry decoded from its key: the element's canonical source at the
//    origin and the point at the rotated, reflected offset. Every miss of
//    one element decodes to the same source, so a chunk's misses of that
//    element share one image sweep in one batched call. Values are a
//    function of the keys alone — bitwise identical at any thread count,
//    chunking, batch composition and cache content — and within 1e-12 of
//    at(x).
//
// Pool ownership: an evaluator either borrows a pool (the engine's, so the
// post step shares its session's workers — campaign::Runner and
// cad::search_design do this) or owns one of PotentialOptions::num_threads
// threads for its whole lifetime. No evaluation call builds threads.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/bem/element.hpp"
#include "src/geom/vec3.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::post {

struct PotentialOptions {
  bem::IntegratorOptions integrator;
  soil::SeriesOptions series;
  soil::HankelOptions hankel{.tolerance = 1e-7};  ///< for 3+ layer soils
  /// Threads of the evaluator's own pool; ignored when a pool is borrowed.
  std::size_t num_threads = 1;
};

/// Evaluates V at points given a solved leakage distribution.
class PotentialEvaluator {
 public:
  /// `pool`, when non-null, is borrowed (it must outlive the evaluator) and
  /// its thread count overrides options.num_threads; otherwise the
  /// evaluator owns a pool of options.num_threads threads. A non-null
  /// `cache` is borrowed for at(points); it must serve the model's soil
  /// under the options' integrator, series and Hankel controls (or throws).
  PotentialEvaluator(const bem::BemModel& model, std::vector<double> sigma,
                     const PotentialOptions& options = {}, par::ThreadPool* pool = nullptr,
                     bem::CongruenceCache* cache = nullptr);

  /// Potential at one point (x.z <= 0; use z = 0 for the earth surface).
  [[nodiscard]] double at(geom::Vec3 x) const;

  /// Potentials at many points: layer-pure point chunks in parallel,
  /// elements outer within a chunk. Without a cache bitwise equal to at(x)
  /// per point; with one, within 1e-12 of it and thread-independent.
  [[nodiscard]] std::vector<double> at(const std::vector<geom::Vec3>& points) const;

  /// Potentials on a regular surface grid (z = 0): rows sweep y, columns x.
  struct SurfaceGrid {
    double x0 = 0.0, y0 = 0.0;
    double dx = 0.0, dy = 0.0;
    std::size_t nx = 0, ny = 0;
    std::vector<double> values;  ///< row-major, values[j * nx + i]

    [[nodiscard]] double at(std::size_t i, std::size_t j) const { return values[j * nx + i]; }
  };
  [[nodiscard]] SurfaceGrid surface_grid(double x0, double x1, double y0, double y1,
                                         std::size_t nx, std::size_t ny) const;

  /// Potential profile along the straight segment a->b (n samples inclusive).
  [[nodiscard]] std::vector<double> profile(geom::Vec3 a, geom::Vec3 b, std::size_t n) const;

  [[nodiscard]] const bem::BemModel& model() const { return model_; }
  [[nodiscard]] const std::vector<double>& sigma() const { return sigma_; }

 private:
  const bem::BemModel& model_;
  std::vector<double> sigma_;
  PotentialOptions options_;
  std::unique_ptr<soil::PointKernel> kernel_;
  bem::Integrator integrator_;
  std::unique_ptr<par::ThreadPool> owned_pool_;  ///< null when the pool is borrowed
  par::ThreadPool* pool_;
  bem::CongruenceCache* cache_;  ///< null: the batched, cache-less path
};

}  // namespace ebem::post
