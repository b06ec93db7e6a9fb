// Post-processing: surface potentials, profiles, grids, contours.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>

#include "src/common/error.hpp"
#include "src/bem/analysis.hpp"
#include "src/bem/congruence_cache.hpp"
#include "src/bem/pair_signature.hpp"
#include "src/cad/cases.hpp"
#include "src/cad/grounding_system.hpp"
#include "src/common/math_utils.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/post/contour.hpp"
#include "src/post/surface_potential.hpp"

namespace ebem::post {
namespace {

struct Solved {
  bem::BemModel model;
  bem::AnalysisResult result;
};

Solved solve_square_grid(const soil::LayeredSoil& soil, double gpr = 1.0,
                         double element_length = 0.0) {
  geom::RectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  spec.depth = 0.8;
  geom::MeshOptions mesh_options;
  mesh_options.target_element_length = element_length;
  bem::BemModel model(geom::Mesh::build(geom::make_rect_grid(spec), mesh_options), soil);
  bem::AnalysisOptions options;
  options.gpr = gpr;
  bem::AnalysisResult result = bem::analyze(model, options);
  return {std::move(model), std::move(result)};
}

TEST(PotentialEvaluator, SurfacePotentialAboveGridNearGpr) {
  // Right above a dense shallow grid the surface potential approaches the
  // GPR (it can never exceed it).
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02), 10e3);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const double v = evaluator.at({10.0, 10.0, 0.0});
  EXPECT_LT(v, 10e3);
  EXPECT_GT(v, 0.6 * 10e3);
}

TEST(PotentialEvaluator, PotentialOnElectrodeSurfaceMatchesGpr) {
  // The boundary condition V = GPR on the electrode surface is what the
  // Galerkin system enforces (weakly): with a refined mesh, the potential a
  // wire radius away from a bar axis sits within a few percent of the GPR.
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02), 1.0, 1.25);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  // Point just beside the middle of the (10, y) bar at burial depth.
  const double v = evaluator.at({10.0 + 0.006, 10.0, -0.8});
  // Weak (Galerkin) enforcement plus the thin-wire regularization leave a
  // few-percent pointwise residual at this mesh density.
  EXPECT_NEAR(v, 1.0, 0.08);
}

TEST(PotentialEvaluator, FarFieldMatchesPointSourceMonopole) {
  // Far away the whole grid is a monopole: V ~ I / (2 pi gamma r).
  const double gamma = 0.02;
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(gamma), 1.0);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const double r = 500.0;
  const double v = evaluator.at({10.0 + r, 10.0, 0.0});
  const double expected = solved.result.total_current / (2.0 * kPi * gamma * r);
  EXPECT_NEAR(v, expected, 0.05 * expected);
}

TEST(PotentialEvaluator, DecaysMonotonicallyOutsideGrid) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  double previous = evaluator.at({21.0, 10.0, 0.0});
  for (double x : {25.0, 30.0, 40.0, 60.0, 100.0}) {
    const double v = evaluator.at({x, 10.0, 0.0});
    EXPECT_LT(v, previous) << x;
    previous = v;
  }
}

/// Bitwise comparison: the batched path must reproduce the pointwise
/// oracle's summation exactly, not merely to rounding.
void expect_bitwise_pointwise(const PotentialEvaluator& evaluator,
                              const std::vector<geom::Vec3>& points) {
  const std::vector<double> batch = evaluator.at(points);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(batch[i], evaluator.at(points[i])) << "point " << i;
  }
}

TEST(PotentialEvaluator, BatchMatchesPointwise) {
  // Two-layer soil with points in both layers (1 m upper layer): the
  // batched path must keep every chunk within one field layer. Both segment
  // evaluators take the batched route.
  const Solved solved = solve_square_grid(soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));
  std::vector<geom::Vec3> points;
  for (int i = 0; i < 12; ++i) points.push_back({-4.0 + 2.7 * i, 30.0 - 2.5 * i, -0.3 * (i % 8)});
  for (const bem::SegmentEval eval :
       {bem::SegmentEval::kBatched, bem::SegmentEval::kScalarReference}) {
    PotentialOptions options;
    options.integrator.segment_eval = eval;
    options.num_threads = 2;
    const PotentialEvaluator evaluator(solved.model, solved.result.sigma, options);
    expect_bitwise_pointwise(evaluator, points);
    EXPECT_TRUE(evaluator.at(std::vector<geom::Vec3>{}).empty());
  }
}

TEST(PotentialEvaluator, ParallelEvaluationMatchesSequential) {
  // Bitwise equal to the pointwise oracle at every width, owned or
  // borrowed pool.
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  std::vector<geom::Vec3> points;
  for (int i = 0; i < 40; ++i) points.push_back({0.7 * i, 0.3 * i, i % 5 == 0 ? -0.4 : 0.0});
  for (const std::size_t threads : {1u, 2u, 4u}) {
    PotentialOptions options;
    options.num_threads = threads;
    const PotentialEvaluator evaluator(solved.model, solved.result.sigma, options);
    expect_bitwise_pointwise(evaluator, points);
    EXPECT_TRUE(evaluator.at(std::vector<geom::Vec3>{}).empty());
  }
  par::ThreadPool pool(3);
  PotentialOptions ignored;
  ignored.num_threads = 8;  // the borrowed pool's width wins
  const PotentialEvaluator borrowed(solved.model, solved.result.sigma, ignored, &pool);
  expect_bitwise_pointwise(borrowed, points);
}

/// A deterministic, non-trivial leakage distribution: the bitwise contract
/// concerns the summation order, not the solution, so the paper-scale
/// models below skip the solve.
std::vector<double> synthetic_sigma(std::size_t dofs) {
  std::vector<double> sigma(dofs);
  for (std::size_t i = 0; i < dofs; ++i) {
    sigma[i] = 1.0 + 0.25 * std::sin(0.37 * static_cast<double>(i));
  }
  return sigma;
}

/// Surface patch over [x0, x1] x [y0, y1] plus its +1 m step probes and a
/// few buried points at `depths` — the point mix assess_safety produces.
std::vector<geom::Vec3> patch_points(double x0, double x1, double y0, double y1,
                                     const std::vector<double>& depths) {
  std::vector<geom::Vec3> points;
  const std::size_t n = 5;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double x = x0 + (x1 - x0) * static_cast<double>(i) / (n - 1);
      const double y = y0 + (y1 - y0) * static_cast<double>(j) / (n - 1);
      points.push_back({x, y, 0.0});
      points.push_back({x + 1.0, y, 0.0});
      if (i == j) {
        for (const double depth : depths) points.push_back({x + 0.3, y + 0.7, depth});
      }
    }
  }
  return points;
}

void expect_bitwise_at_every_width(const bem::BemModel& model,
                                   const std::vector<geom::Vec3>& points) {
  const std::vector<double> sigma = synthetic_sigma(model.dof_count(bem::BasisKind::kLinear));
  for (const std::size_t threads : {1u, 4u}) {
    PotentialOptions options;
    options.num_threads = threads;
    const PotentialEvaluator evaluator(model, sigma, options);
    expect_bitwise_pointwise(evaluator, points);
  }
  par::ThreadPool pool(2);
  const PotentialEvaluator borrowed(model, sigma, {}, &pool);
  expect_bitwise_pointwise(borrowed, points);
}

TEST(PotentialEvaluator, BatchMatchesPointwiseOnBarberaTwoLayer) {
  const cad::BarberaCase barbera = cad::barbera_case();
  const cad::GroundingSystem system(barbera.conductors, barbera.two_layer_soil);
  expect_bitwise_at_every_width(system.model(),
                                patch_points(-5.0, 94.0, -5.0, 148.0, {-0.5, -2.0}));
}

TEST(PotentialEvaluator, BatchMatchesPointwiseOnBalaidosC) {
  // Soil C puts the grid in the upper layer and the rod tips in the lower.
  const cad::BalaidosCase balaidos = cad::balaidos_case();
  const cad::GroundingSystem system(balaidos.conductors, balaidos.soil_c);
  expect_bitwise_at_every_width(system.model(),
                                patch_points(-5.0, 85.0, -5.0, 65.0, {-0.6, -1.8}));
}

TEST(PotentialEvaluator, BatchMatchesPointwiseOnCampaignGrid) {
  geom::RectGridSpec spec;
  spec.length_x = 50.0;
  spec.length_y = 50.0;
  spec.cells_x = 10;
  spec.cells_y = 10;
  const bem::BemModel model(geom::Mesh::build(geom::make_rect_grid(spec)),
                            soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));
  expect_bitwise_at_every_width(model, patch_points(0.0, 50.0, 0.0, 50.0, {-1.5}));
}

// ---------------------------------------------------------------------------
// Congruence-cached influences
// ---------------------------------------------------------------------------

/// The e2e campaign grid, shifted horizontally by `shift`.
bem::BemModel campaign_grid_model(geom::Vec3 shift = {}) {
  geom::RectGridSpec spec;
  spec.length_x = 50.0;
  spec.length_y = 50.0;
  spec.cells_x = 10;
  spec.cells_y = 10;
  std::vector<geom::Conductor> conductors = geom::make_rect_grid(spec);
  for (geom::Conductor& conductor : conductors) {
    conductor.a = conductor.a + shift;
    conductor.b = conductor.b + shift;
  }
  return {geom::Mesh::build(conductors), soil::LayeredSoil::two_layer(0.005, 0.016, 1.0)};
}

/// The points assess_safety evaluates on a 6 x 6 patch over the campaign
/// grid: the samples and their +1 m step probes in x and y (108 points).
std::vector<geom::Vec3> campaign_safety_points(geom::Vec3 shift = {}) {
  std::vector<geom::Vec3> points;
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = 0; i < 6; ++i) {
      const double x = shift.x + 10.0 * static_cast<double>(i);
      const double y = shift.y + 10.0 * static_cast<double>(j);
      points.push_back({x, y, 0.0});
      points.push_back({x + 1.0, y, 0.0});
      points.push_back({x, y + 1.0, 0.0});
    }
  }
  return points;
}

/// Cache-on batched values against the cache-less pointwise oracle.
void expect_cached_near_pointwise(const bem::BemModel& model,
                                  const std::vector<geom::Vec3>& points,
                                  const PotentialOptions& options = {}) {
  const std::vector<double> sigma =
      synthetic_sigma(model.dof_count(options.integrator.basis));
  bem::CongruenceCache cache(model.soil(),
                             {options.integrator, options.series, options.hankel});
  const PotentialEvaluator cached(model, sigma, options, nullptr, &cache);
  const std::vector<double> values = cached.at(points);
  ASSERT_EQ(values.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double oracle = cached.at(points[i]);
    EXPECT_LE(std::abs(values[i] - oracle), 1e-12 * std::abs(oracle)) << "point " << i;
  }
  EXPECT_GT(cache.entries(), 0u);
}

TEST(PotentialEvaluator, CachedMatchesPointwiseOnCampaignPatch) {
  PotentialOptions options;
  options.num_threads = 4;
  expect_cached_near_pointwise(campaign_grid_model(), campaign_safety_points(), options);
}

TEST(PotentialEvaluator, CachedMatchesPointwiseOnBarberaTwoLayer) {
  const cad::BarberaCase barbera = cad::barbera_case();
  const cad::GroundingSystem system(barbera.conductors, barbera.two_layer_soil);
  expect_cached_near_pointwise(system.model(),
                               patch_points(-5.0, 94.0, -5.0, 148.0, {-0.5, -2.0}));
}

TEST(PotentialEvaluator, CachedMatchesPointwiseOnBalaidosC) {
  // Vertical rods (the key's frame falls back to the offset) and points in
  // both layers.
  const cad::BalaidosCase balaidos = cad::balaidos_case();
  const cad::GroundingSystem system(balaidos.conductors, balaidos.soil_c);
  expect_cached_near_pointwise(system.model(),
                               patch_points(-5.0, 85.0, -5.0, 65.0, {-0.6, -1.8}));
}

TEST(PotentialEvaluator, CachedMatchesPointwiseOnThreeLayerSoil) {
  // Spectral kernel with subtracted quadrature; one thread (the Hankel
  // kernel's Bessel calls are not thread-clean under TSan).
  const soil::LayeredSoil three(
      {soil::Layer{0.01, 1.0}, soil::Layer{0.004, 1.0}, soil::Layer{0.04, 0.0}});
  const std::vector<geom::Conductor> wire{{{0, 0, -0.8}, {10, 0, -0.8}, 0.006}};
  geom::MeshOptions mesh_options;
  mesh_options.target_element_length = 2.5;
  const bem::BemModel model(geom::Mesh::build(wire, mesh_options), three);
  std::vector<geom::Vec3> points;
  for (const double x : {1.25, 3.75, 6.25, 8.75}) {
    points.push_back({x, 1.0, 0.0});
    points.push_back({x, -1.0, 0.0});
  }
  points.push_back({5.0, 0.5, -1.5});
  expect_cached_near_pointwise(model, points);
}

TEST(PotentialEvaluator, CachedValuesDependOnTheKeysAlone) {
  // Bitwise equal at 1, 2 and 4 threads, on a borrowed pool, and from a
  // cache another sigma (and point order) filled: an influence is
  // integrated from the geometry its key encodes, whoever misses first.
  // The shift makes the grid's coordinates inexact, so congruent pairs in
  // hand integrate to different bits.
  const geom::Vec3 shift{0.1, 0.3, 0.0};
  const bem::BemModel model = campaign_grid_model(shift);
  const std::vector<geom::Vec3> points = campaign_safety_points(shift);
  const std::vector<double> sigma = synthetic_sigma(model.dof_count(bem::BasisKind::kLinear));
  std::vector<double> reference;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    bem::CongruenceCache cache(model.soil());
    PotentialOptions options;
    options.num_threads = threads;
    const std::vector<double> values =
        PotentialEvaluator(model, sigma, options, nullptr, &cache).at(points);
    if (reference.empty()) reference = values;
    EXPECT_EQ(values, reference) << threads << " threads";
  }
  bem::CongruenceCache prefilled(model.soil());
  const std::vector<double> other_sigma(sigma.size(), 1.0);
  (void)PotentialEvaluator(model, other_sigma, {}, nullptr, &prefilled)
      .at(std::vector<geom::Vec3>(points.rbegin(), points.rend()));
  par::ThreadPool pool(3);
  EXPECT_EQ(PotentialEvaluator(model, sigma, {}, &pool, &prefilled).at(points), reference);
}

TEST(PotentialEvaluator, CacheIntegratesEachClassOnce) {
  // One thread, under the cap: every miss inserts, so the entries count the
  // misses. The undamaged campaign grid's patch holds 23,760 influences in
  // 860 classes; a second evaluation replays all of them.
  const bem::BemModel model = campaign_grid_model();
  const std::vector<geom::Vec3> points = campaign_safety_points();
  std::set<std::array<std::int64_t, 13>> keys;
  for (const geom::Vec3& point : points) {
    for (const bem::BemElement& element : model.elements()) {
      keys.insert(bem::make_point_signature(point, model.soil().layer_of(point.z), element).q);
    }
  }
  EXPECT_EQ(keys.size(), 860u);
  bem::CongruenceCache cache(model.soil());
  const PotentialEvaluator evaluator(model, synthetic_sigma(model.node_count()), {}, nullptr,
                                     &cache);
  const std::vector<double> first = evaluator.at(points);
  EXPECT_EQ(cache.entries(), keys.size());
  EXPECT_EQ(evaluator.at(points), first);
  EXPECT_EQ(cache.entries(), keys.size());
}

TEST(PotentialEvaluator, CacheOfOtherPhysicsThrows) {
  const bem::BemModel model = campaign_grid_model();
  const std::vector<double> sigma = synthetic_sigma(model.node_count());
  bem::CongruenceCache other_soil(soil::LayeredSoil::two_layer(0.005, 0.02, 1.0));
  EXPECT_THROW(PotentialEvaluator(model, sigma, {}, nullptr, &other_soil),
               ebem::InvalidArgument);
  bem::AssemblyOptions looser;
  looser.series.tolerance *= 10.0;
  bem::CongruenceCache other_series(model.soil(), looser);
  EXPECT_THROW(PotentialEvaluator(model, sigma, {}, nullptr, &other_series),
               ebem::InvalidArgument);
  bem::CongruenceCache same(model.soil());
  EXPECT_NO_THROW(PotentialEvaluator(model, sigma, {}, nullptr, &same));
}

TEST(PotentialEvaluator, SurfaceGridLayoutAndSymmetry) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const auto grid = evaluator.surface_grid(-5.0, 25.0, -5.0, 25.0, 13, 13);
  EXPECT_EQ(grid.values.size(), 13u * 13u);
  EXPECT_DOUBLE_EQ(grid.dx, 30.0 / 12.0);
  // The square grid is symmetric under x <-> y (up to quadrature-level
  // differences between x- and y-oriented elements).
  for (std::size_t j = 0; j < 13; ++j) {
    for (std::size_t i = 0; i < 13; ++i) {
      EXPECT_NEAR(grid.at(i, j), grid.at(j, i), 1e-5 * std::abs(grid.at(i, j)));
    }
  }
  // Peak near the grid center sample.
  const auto max_it = std::max_element(grid.values.begin(), grid.values.end());
  const std::size_t idx = static_cast<std::size_t>(max_it - grid.values.begin());
  const std::size_t ci = idx % 13;
  const std::size_t cj = idx / 13;
  EXPECT_NEAR(static_cast<double>(ci), 6.0, 1.01);
  EXPECT_NEAR(static_cast<double>(cj), 6.0, 1.01);
}

TEST(PotentialEvaluator, ProfileEndpointsMatchPointEvaluation) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const geom::Vec3 a{-10, 10, 0};
  const geom::Vec3 b{30, 10, 0};
  const auto profile = evaluator.profile(a, b, 9);
  ASSERT_EQ(profile.size(), 9u);
  EXPECT_DOUBLE_EQ(profile.front(), evaluator.at(a));
  EXPECT_DOUBLE_EQ(profile.back(), evaluator.at(b));
}

TEST(PotentialEvaluator, TwoLayerSurfacePotentialsDifferFromUniform) {
  // Fig. 5.2's message: layer structure visibly changes surface potentials.
  const Solved uniform = solve_square_grid(soil::LayeredSoil::uniform(0.016), 1.0);
  const Solved layered =
      solve_square_grid(soil::LayeredSoil::two_layer(0.005, 0.016, 1.0), 1.0);
  const PotentialEvaluator eu(uniform.model, uniform.result.sigma);
  const PotentialEvaluator el(layered.model, layered.result.sigma);
  const double vu = eu.at({10, 10, 0});
  const double vl = el.at({10, 10, 0});
  EXPECT_GT(std::abs(vu - vl) / vu, 0.02);
}

TEST(PotentialEvaluator, SigmaSizeValidated) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  std::vector<double> wrong(solved.result.sigma);
  wrong.pop_back();
  EXPECT_THROW(PotentialEvaluator(solved.model, wrong), ebem::InvalidArgument);
}

TEST(Contour, CsvHasHeaderAndAllRows) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02));
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const auto grid = evaluator.surface_grid(0.0, 20.0, 0.0, 20.0, 5, 4);
  std::ostringstream os;
  write_contour_csv(os, grid);
  const std::string text = os.str();
  EXPECT_EQ(text.find("x,y,potential"), 0u);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1 + 5 * 4);
}

TEST(Contour, AsciiShowsHighBandOverGrid) {
  const Solved solved = solve_square_grid(soil::LayeredSoil::uniform(0.02), 10e3);
  const PotentialEvaluator evaluator(solved.model, solved.result.sigma);
  const auto grid = evaluator.surface_grid(-20.0, 40.0, -20.0, 40.0, 31, 31);
  const std::string art = ascii_contour(grid);
  EXPECT_NE(art.find('@'), std::string::npos);   // hot spot over the grid
  EXPECT_NE(art.find("bands:"), std::string::npos);
  // 31 rows plus the legend line.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 32);
}

}  // namespace
}  // namespace ebem::post
