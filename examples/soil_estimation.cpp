// Soil parameter estimation: from Wenner field soundings to a two-layer
// model to a grounding analysis.
//
// The paper's layer conductivities are "experimentally obtained"; this
// example shows the full workflow on a synthetic survey.
//
//   $ ./soil_estimation
#include <cmath>
#include <cstdio>

#include "src/ebem.hpp"

int main() {
  using namespace ebem;

  // Ground truth soil used to synthesize the survey (Barbera-like).
  const auto truth = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  std::printf("True soil: rho1 = %.1f Ohm m, rho2 = %.1f Ohm m, H = %.2f m\n",
              truth.resistivity(0), truth.resistivity(1), truth.interface_depth(0));

  // Simulated Wenner sounding at standard spacings.
  std::vector<estimation::WennerReading> survey;
  std::printf("\n%8s %14s\n", "a (m)", "rho_a (Ohm m)");
  for (double a : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    const double rho = estimation::wenner_apparent_resistivity(truth, a);
    survey.push_back({a, rho});
    std::printf("%8.1f %14.2f\n", a, rho);
  }

  // Invert for the two-layer parameters.
  const estimation::TwoLayerFit fit = estimation::fit_two_layer(survey);
  std::printf("\nFitted soil (in %zu iterations, rms log-misfit %.2e):\n", fit.iterations,
              fit.rms_log_misfit);
  std::printf("  rho1 = %.1f Ohm m, rho2 = %.1f Ohm m, H = %.2f m\n",
              fit.soil.resistivity(0), fit.soil.resistivity(1), fit.soil.interface_depth(0));

  // Use the fitted model in an actual grounding analysis, and quantify the
  // fit's leverage with a GPR sweep off one factorization: the normalized
  // problem is solved once per soil; every GPR scales it (paper §2), and a
  // FactoredSystem would answer arbitrary further right-hand sides without
  // refactoring.
  geom::RectGridSpec spec;
  spec.length_x = 30.0;
  spec.length_y = 30.0;
  spec.cells_x = 3;
  spec.cells_y = 3;
  cad::DesignOptions options;
  options.analysis.gpr = 10e3;
  engine::Engine engine;
  cad::GroundingSystem system(geom::make_rect_grid(spec), fit.soil, options);
  const cad::Report& report = system.analyze(engine);
  std::printf("\nGrid analysis with fitted soil: Req = %.4f Ohm, I = %.2f kA\n",
              report.equivalent_resistance, report.total_current / 1e3);

  // Cross-check against the ground truth through the same warm engine; the
  // soil change gives this run a fresh cache automatically.
  cad::GroundingSystem truth_system(geom::make_rect_grid(spec), truth, options);
  const cad::Report& truth_report = truth_system.analyze(engine);
  std::printf("Same grid in the true soil:     Req = %.4f Ohm (fit error %.2f%%)\n",
              truth_report.equivalent_resistance,
              100.0 * std::abs(report.equivalent_resistance -
                               truth_report.equivalent_resistance) /
                  truth_report.equivalent_resistance);
  return 0;
}
