// Three-and-more-layer soils end to end: the extension the paper names in
// §4.2 (double/triple series; "CPU time may increase up to un-admissible
// levels"). Assembly falls back to the spectral kernel with quadrature, so
// meshes here are kept deliberately tiny.
#include <gtest/gtest.h>

#include "src/bem/analysis.hpp"
#include "src/common/error.hpp"
#include "src/geom/mesh.hpp"
#include "src/post/surface_potential.hpp"

namespace ebem::bem {
namespace {

AnalysisResult analyze_wire(const soil::LayeredSoil& soil, double hankel_tolerance = 1e-7) {
  const std::vector<geom::Conductor> wire{{{0, 0, -0.8}, {10, 0, -0.8}, 0.006}};
  geom::MeshOptions mesh_options;
  mesh_options.target_element_length = 2.5;  // 4 elements
  const auto split = split_at_interfaces(wire, soil);
  const BemModel model(geom::Mesh::build(split, mesh_options), soil);
  AnalysisOptions options;
  options.assembly.hankel.tolerance = hankel_tolerance;
  options.assembly.integrator.inner_gauss_points = 8;
  return analyze(model, options);
}

TEST(MultiLayer, DegenerateThreeLayerMatchesTwoLayerAnalysis) {
  // Two identical lower layers must reproduce the two-layer result. The
  // two-layer path uses analytic-inner image integration, the three-layer
  // path generic quadrature of the spectral kernel, so agreement here
  // validates the whole fallback chain (within quadrature tolerance).
  const auto two = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const soil::LayeredSoil three(
      {soil::Layer{0.005, 1.0}, soil::Layer{0.016, 2.0}, soil::Layer{0.016, 0.0}});
  const double r2 = analyze_wire(two).equivalent_resistance;
  const double r3 = analyze_wire(three).equivalent_resistance;
  EXPECT_NEAR(r3, r2, 0.01 * r2);
}

TEST(MultiLayer, DegenerateUniformSandwich) {
  const auto uniform = soil::LayeredSoil::uniform(0.02);
  const soil::LayeredSoil sandwich(
      {soil::Layer{0.02, 0.5}, soil::Layer{0.02, 1.0}, soil::Layer{0.02, 0.0}});
  const double r1 = analyze_wire(uniform).equivalent_resistance;
  const double r3 = analyze_wire(sandwich).equivalent_resistance;
  EXPECT_NEAR(r3, r1, 0.01 * r1);
}

TEST(MultiLayer, ResistiveMiddleLayerRaisesResistance) {
  // A resistive blanket between the electrode layer and the deep earth
  // obstructs current spreading: Req must rise relative to no blanket.
  const soil::LayeredSoil open(
      {soil::Layer{0.02, 1.5}, soil::Layer{0.02, 2.0}, soil::Layer{0.02, 0.0}});
  const soil::LayeredSoil blanketed(
      {soil::Layer{0.02, 1.5}, soil::Layer{0.002, 2.0}, soil::Layer{0.02, 0.0}});
  const double r_open = analyze_wire(open).equivalent_resistance;
  const double r_blanket = analyze_wire(blanketed).equivalent_resistance;
  EXPECT_GT(r_blanket, 1.2 * r_open);
}

TEST(MultiLayer, ConductiveBottomLowersResistance) {
  const soil::LayeredSoil shallow(
      {soil::Layer{0.01, 1.5}, soil::Layer{0.01, 1.5}, soil::Layer{0.01, 0.0}});
  const soil::LayeredSoil deep_conductor(
      {soil::Layer{0.01, 1.5}, soil::Layer{0.01, 1.5}, soil::Layer{0.1, 0.0}});
  EXPECT_LT(analyze_wire(deep_conductor).equivalent_resistance,
            analyze_wire(shallow).equivalent_resistance);
}

TEST(MultiLayer, SurfacePotentialEvaluatorWorks) {
  const soil::LayeredSoil three(
      {soil::Layer{0.01, 1.0}, soil::Layer{0.004, 1.0}, soil::Layer{0.04, 0.0}});
  const std::vector<geom::Conductor> wire{{{0, 0, -0.8}, {10, 0, -0.8}, 0.006}};
  geom::MeshOptions mesh_options;
  mesh_options.target_element_length = 5.0;
  const BemModel model(geom::Mesh::build(wire, mesh_options), three);
  AnalysisOptions options;
  const AnalysisResult result = analyze(model, options);

  post::PotentialOptions potential_options;
  const post::PotentialEvaluator evaluator(model, result.sigma, potential_options);
  const double above = evaluator.at({5.0, 0.0, 0.0});
  const double away = evaluator.at({5.0, 50.0, 0.0});
  EXPECT_GT(above, 0.0);
  EXPECT_GT(above, 2.0 * away);

  // The non-analytic (subtracted-quadrature) path batches per point; its
  // values, in every layer, still equal the pointwise oracle bitwise. One
  // thread: libstdc++'s cyl_bessel_j writes lgamma's global signgam, which
  // ThreadSanitizer reports when the spectral kernel runs on several threads.
  std::vector<geom::Vec3> points;
  for (int i = 0; i < 6; ++i) points.push_back({1.5 * i, 2.0 - 0.7 * i, -0.45 * i});
  const std::vector<double> batch = evaluator.at(points);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) EXPECT_EQ(batch[i], evaluator.at(points[i]));
}

TEST(MultiLayer, AnalyticInnerRequestIsRedirected) {
  // Requesting analytic inner integration with a 3-layer soil silently
  // falls back to Gauss in assembly (there are no closed-form images).
  const soil::LayeredSoil three(
      {soil::Layer{0.01, 1.0}, soil::Layer{0.02, 1.0}, soil::Layer{0.04, 0.0}});
  const std::vector<geom::Conductor> wire{{{0, 0, -0.5}, {6, 0, -0.5}, 0.006}};
  const BemModel model(geom::Mesh::build(wire), three);
  AnalysisOptions options;
  options.assembly.integrator.inner = InnerIntegration::kAnalytic;
  EXPECT_NO_THROW((void)analyze(model, options));
}

TEST(MultiLayer, DirectIntegratorConstructionWithHankelRequiresGauss) {
  const soil::LayeredSoil three(
      {soil::Layer{0.01, 1.0}, soil::Layer{0.02, 1.0}, soil::Layer{0.04, 0.0}});
  const soil::HankelKernel kernel(three);
  IntegratorOptions analytic;
  analytic.inner = InnerIntegration::kAnalytic;
  EXPECT_THROW(Integrator(kernel, analytic), ebem::InvalidArgument);
  IntegratorOptions gauss;
  gauss.inner = InnerIntegration::kGauss;
  EXPECT_NO_THROW(Integrator(kernel, gauss));
}

}  // namespace
}  // namespace ebem::bem
