// End-to-end analysis: classical closed-form anchors and exact invariances.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.hpp"
#include "src/bem/analysis.hpp"
#include "src/common/math_utils.hpp"
#include "src/engine/engine.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"

namespace ebem::bem {
namespace {

AnalysisResult analyze_conductors(const std::vector<geom::Conductor>& conductors,
                                  const soil::LayeredSoil& soil, double element_length,
                                  double gpr = 1.0) {
  geom::MeshOptions mesh_options;
  mesh_options.target_element_length = element_length;
  const auto split = split_at_interfaces(conductors, soil);
  const BemModel model(geom::Mesh::build(split, mesh_options), soil);
  AnalysisOptions options;
  options.gpr = gpr;
  return analyze(model, options);
}

TEST(Analysis, VerticalRodMatchesDwightFormula) {
  // R = rho/(2 pi L) (ln(8L/d) - 1), Dwight/IEEE Std 80 eq. (52) for a rod
  // near the surface.
  const double rho = 100.0;
  const double length = 3.0;
  const double radius = 0.007;
  const std::vector<geom::Conductor> rod{
      {{0, 0, -1e-4}, {0, 0, -1e-4 - length}, radius}};
  const AnalysisResult result =
      analyze_conductors(rod, soil::LayeredSoil::uniform(1.0 / rho), 0.2);
  const double dwight =
      rho / (2.0 * kPi * length) * (std::log(8.0 * length / (2.0 * radius)) - 1.0);
  EXPECT_NEAR(result.equivalent_resistance, dwight, 0.03 * dwight);
}

TEST(Analysis, BuriedHorizontalWireMatchesSundeFormula) {
  // R = rho/(pi L) (ln(2L / sqrt(2 r h)) - 1) for a wire of length L,
  // radius r, buried at depth h (Sunde / IEEE Std 80 eq. (53) form).
  const double rho = 50.0;
  const double length = 20.0;
  const double radius = 0.006;
  const double depth = 0.8;
  const std::vector<geom::Conductor> wire{{{0, 0, -depth}, {length, 0, -depth}, radius}};
  const AnalysisResult result =
      analyze_conductors(wire, soil::LayeredSoil::uniform(1.0 / rho), 0.5);
  const double sunde =
      rho / (kPi * length) * (std::log(2.0 * length / std::sqrt(2.0 * radius * depth)) - 1.0);
  EXPECT_NEAR(result.equivalent_resistance, sunde, 0.04 * sunde);
}

TEST(Analysis, SquareGridNearIeeeStd80Estimate) {
  // IEEE Std 80 (Sverak) grid formula:
  // R = rho [ 1/L_T + 1/sqrt(20 A) (1 + 1/(1 + h sqrt(20/A))) ].
  const double rho = 50.0;
  geom::RectGridSpec spec;
  spec.length_x = 40.0;
  spec.length_y = 40.0;
  spec.cells_x = 4;
  spec.cells_y = 4;
  spec.depth = 0.8;
  spec.radius = 0.006;
  const auto grid = geom::make_rect_grid(spec);
  const AnalysisResult result =
      analyze_conductors(grid, soil::LayeredSoil::uniform(1.0 / rho), 0.0);
  const double area = 40.0 * 40.0;
  const double total = geom::total_length(grid);
  const double sverak =
      rho * (1.0 / total +
             1.0 / std::sqrt(20.0 * area) *
                 (1.0 + 1.0 / (1.0 + spec.depth * std::sqrt(20.0 / area))));
  EXPECT_NEAR(result.equivalent_resistance, sverak, 0.12 * sverak);
}

TEST(Analysis, ConductivityScalingIsExact) {
  // gamma -> s * gamma rescales the kernel by 1/s, so Req -> Req / s exactly
  // (same discretization, same quadrature).
  const std::vector<geom::Conductor> wire{{{0, 0, -0.8}, {10, 0, -0.8}, 0.006}};
  const AnalysisResult base =
      analyze_conductors(wire, soil::LayeredSoil::uniform(0.01), 1.0);
  const AnalysisResult scaled =
      analyze_conductors(wire, soil::LayeredSoil::uniform(0.04), 1.0);
  EXPECT_NEAR(scaled.equivalent_resistance, base.equivalent_resistance / 4.0,
              1e-10 * base.equivalent_resistance);
}

TEST(Analysis, TwoLayerScalingIsExact) {
  const std::vector<geom::Conductor> wire{{{0, 0, -0.8}, {10, 0, -0.8}, 0.006}};
  const AnalysisResult base =
      analyze_conductors(wire, soil::LayeredSoil::two_layer(0.005, 0.016, 1.0), 1.0);
  const AnalysisResult scaled =
      analyze_conductors(wire, soil::LayeredSoil::two_layer(0.010, 0.032, 1.0), 1.0);
  EXPECT_NEAR(scaled.equivalent_resistance, base.equivalent_resistance / 2.0,
              1e-9 * base.equivalent_resistance);
}

TEST(Analysis, GprProportionality) {
  // V_Gamma = 1 is not restrictive (paper §2): doubling the GPR doubles the
  // current and the leakage densities, leaving Req unchanged.
  const std::vector<geom::Conductor> wire{{{0, 0, -0.8}, {10, 0, -0.8}, 0.006}};
  const auto soil = soil::LayeredSoil::uniform(0.02);
  const AnalysisResult v1 = analyze_conductors(wire, soil, 1.0, 1.0);
  const AnalysisResult v2 = analyze_conductors(wire, soil, 1.0, 10e3);
  EXPECT_NEAR(v2.equivalent_resistance, v1.equivalent_resistance,
              1e-12 * v1.equivalent_resistance);
  EXPECT_NEAR(v2.total_current, 10e3 * v1.total_current, 1e-9 * v2.total_current);
  for (std::size_t i = 0; i < v1.sigma.size(); ++i) {
    EXPECT_NEAR(v2.sigma[i], 10e3 * v1.sigma[i], 1e-9 * std::abs(v2.sigma[i]));
  }
}

TEST(Analysis, EqualLayerTwoLayerMatchesUniform) {
  const std::vector<geom::Conductor> wire{{{0, 0, -0.8}, {10, 0, -0.8}, 0.006},
                                          {{0, 0, -0.8}, {0, 10, -0.8}, 0.006}};
  const AnalysisResult uniform =
      analyze_conductors(wire, soil::LayeredSoil::uniform(0.02), 1.0);
  const AnalysisResult layered =
      analyze_conductors(wire, soil::LayeredSoil::two_layer(0.02, 0.02, 1.0), 1.0);
  EXPECT_NEAR(layered.equivalent_resistance, uniform.equivalent_resistance,
              1e-10 * uniform.equivalent_resistance);
}

TEST(Analysis, ResistiveUpperLayerRaisesResistance) {
  // The Barbera observation: a resistive layer above the grid raises Req
  // relative to uniform lower-layer soil.
  const std::vector<geom::Conductor> wire{{{0, 0, -0.8}, {20, 0, -0.8}, 0.006}};
  const AnalysisResult uniform =
      analyze_conductors(wire, soil::LayeredSoil::uniform(0.016), 0.5);
  const AnalysisResult layered =
      analyze_conductors(wire, soil::LayeredSoil::two_layer(0.005, 0.016, 1.0), 0.5);
  EXPECT_GT(layered.equivalent_resistance, uniform.equivalent_resistance);
}

TEST(Analysis, RefinementConvergesMonotonically) {
  // Galerkin refinement should settle, not diverge (the "anomalous results"
  // the paper's ref [6] warns about do not appear with this formulation).
  const std::vector<geom::Conductor> wire{{{0, 0, -0.8}, {10, 0, -0.8}, 0.006}};
  const auto soil = soil::LayeredSoil::uniform(0.02);
  double previous = 0.0;
  double previous_delta = 1e300;
  for (double h : {5.0, 2.5, 1.25, 0.625}) {
    const AnalysisResult result = analyze_conductors(wire, soil, h);
    if (previous != 0.0) {
      const double delta = std::abs(result.equivalent_resistance - previous);
      EXPECT_LT(delta, previous_delta * 1.05);
      previous_delta = delta;
    }
    previous = result.equivalent_resistance;
  }
  EXPECT_LT(previous_delta / previous, 0.01);
}

TEST(Analysis, MoreConductorsLowerResistance) {
  geom::RectGridSpec coarse;
  coarse.length_x = 40.0;
  coarse.length_y = 40.0;
  coarse.cells_x = 2;
  coarse.cells_y = 2;
  geom::RectGridSpec dense = coarse;
  dense.cells_x = 6;
  dense.cells_y = 6;
  const auto soil = soil::LayeredSoil::uniform(0.02);
  const AnalysisResult r_coarse =
      analyze_conductors(geom::make_rect_grid(coarse), soil, 0.0);
  const AnalysisResult r_dense = analyze_conductors(geom::make_rect_grid(dense), soil, 0.0);
  EXPECT_LT(r_dense.equivalent_resistance, r_coarse.equivalent_resistance);
}

TEST(Analysis, RodsReduceResistanceInLayeredSoil) {
  // Adding rods that reach the conductive lower layer must lower Req.
  geom::RectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.05, 1.0);
  const auto bare = geom::make_rect_grid(spec);
  auto with_rods = bare;
  geom::RodSpec rod;
  rod.length = 3.0;
  geom::add_rods(with_rods, {{0, 0, 0}, {20, 0, 0}, {0, 20, 0}, {20, 20, 0}}, spec.depth, rod);
  const AnalysisResult without = analyze_conductors(bare, soil, 0.0);
  const AnalysisResult with = analyze_conductors(with_rods, soil, 0.0);
  EXPECT_LT(with.equivalent_resistance, without.equivalent_resistance);
}

TEST(Analysis, PhaseReportCapturesMatrixGenerationDominance) {
  geom::RectGridSpec spec;
  spec.length_x = 30.0;
  spec.length_y = 30.0;
  spec.cells_x = 3;
  spec.cells_y = 3;
  const BemModel model(geom::Mesh::build(geom::make_rect_grid(spec)),
                       soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));
  PhaseReport report;
  engine::Engine engine;
  (void)engine.analyze(model, {}, &report);
  EXPECT_GT(report.cpu_seconds(Phase::kMatrixGeneration), 0.0);
  EXPECT_GT(report.cpu_fraction(Phase::kMatrixGeneration), 0.5);
}

TEST(Analysis, RejectsNonPositiveGpr) {
  const std::vector<geom::Conductor> wire{{{0, 0, -0.8}, {10, 0, -0.8}, 0.006}};
  const BemModel model(geom::Mesh::build(wire), soil::LayeredSoil::uniform(0.02));
  AnalysisOptions options;
  options.gpr = 0.0;
  EXPECT_THROW((void)analyze(model, options), ebem::InvalidArgument);
}

}  // namespace
}  // namespace ebem::bem
