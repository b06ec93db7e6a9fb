// Scenario campaigns: from one Wenner sounding to a percentile safety
// report.
//
//   $ ./campaign
//
// The single-soil workflow (soil_estimation.cpp -> safety_assessment.cpp)
// answers "is this design safe for the fitted soil?". This walkthrough
// answers the campaign question instead: the sounding is noisy, so the
// fitted two-layer model carries uncertainty — what does the *distribution*
// of plausible soils do to GPR and the touch/step margins? And separately:
// what happens to the same design when conductors corrode away?
#include <cstdio>
#include <random>
#include <vector>

#include "src/ebem.hpp"

namespace {

void print_metric(const char* name, const ebem::campaign::MetricSummary& metric,
                  const char* unit) {
  std::printf("  %-14s P5 %9.2f   P50 %9.2f   P95 %9.2f   P99 %9.2f %s\n", name, metric.p5(),
              metric.p50(), metric.p95(), metric.p99(), unit);
}

}  // namespace

int main() {
  using namespace ebem;

  // --- 1. A noisy sounding and its fit -----------------------------------
  // Synthetic Wenner survey over a "true" site (rho1=200, rho2=62.5, h=1 m)
  // with 5% log-normal measurement noise — the field reality the campaign
  // machinery exists for.
  const auto true_site = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  std::mt19937 rng(7);
  std::normal_distribution<double> noise(0.0, 0.05);
  std::vector<estimation::WennerReading> survey;
  for (const double a : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    survey.push_back({a, estimation::wenner_apparent_resistivity(true_site, a) *
                             std::exp(noise(rng))});
  }
  const estimation::TwoLayerFit fit = estimation::fit_two_layer(survey);
  std::printf("fit: rho1 %.1f  rho2 %.1f  h %.2f   (log-sigmas %.3f / %.3f / %.3f)\n",
              fit.soil.resistivity(0), fit.soil.resistivity(1), fit.soil.interface_depth(0),
              fit.sigma_log_rho1, fit.sigma_log_rho2, fit.sigma_log_h);

  // --- 2. The design under study -----------------------------------------
  geom::RectGridSpec spec;
  spec.length_x = 30.0;
  spec.length_y = 30.0;
  spec.cells_x = 6;
  spec.cells_y = 6;
  const std::vector<geom::Conductor> grid = geom::make_rect_grid(spec);

  // --- 3. Soil campaign: the fit's own uncertainty, propagated ------------
  // SoilDistribution::from_fit turns the inversion's per-parameter sigmas
  // into a sampling distribution; 128 stratified scenarios, seeded — the
  // same seed always yields the same ensemble and the same percentiles.
  const campaign::SoilEnsemble soils(campaign::SoilDistribution::from_fit(fit), 128, 42);

  campaign::CampaignOptions options;
  options.window = 4;               // in-flight cap: backpressure, not queue
  options.fault_current = 1000.0;   // GPR_i = I_f x R_eq_i per scenario
  campaign::SafetyPatch patch;
  patch.x1 = spec.length_x;
  patch.y1 = spec.length_y;
  patch.criteria.surface_resistivity = 3000.0;  // 10 cm gravel layer
  options.safety = patch;

  engine::Engine engine;
  engine::Study study(engine);
  campaign::Runner runner(study, options);
  const campaign::CampaignResult soil_report = runner.run(
      campaign::SoilSweep(grid, {}, soils));

  std::printf("\n=== soil campaign: %zu scenarios (1 kA fault) ===\n", soil_report.completed);
  print_metric("R_eq", soil_report.resistance, "Ohm");
  print_metric("GPR", soil_report.gpr, "V");
  print_metric("touch margin", soil_report.touch_margin, "V");
  print_metric("step margin", soil_report.step_margin, "V");
  std::printf("  violations: %zu touch, %zu step of %zu scenarios\n",
              soil_report.touch_violations, soil_report.step_violations, soil_report.completed);

  // --- 4. Damage campaign: corrosion ablations, one fixed physics ---------
  // Same soil for every scenario, so all scenarios share one warm cache
  // (each soil scenario above started a fresh one).
  campaign::DamageOptions damage;
  damage.max_breaks = 3;
  campaign::Runner damage_runner(study, options);
  const campaign::CampaignResult damage_report = damage_runner.run(
      campaign::DamageSweep(campaign::DamageEnsemble(grid, fit.soil, damage, 32, 42)));

  std::printf("\n=== damage campaign: %zu ablated variants ===\n", damage_report.completed);
  print_metric("R_eq", damage_report.resistance, "Ohm");
  print_metric("touch margin", damage_report.touch_margin, "V");
  std::printf("  warm cache: %.0f%% of pair integrals replayed across scenarios\n",
              100.0 * damage_report.cache.hit_rate());
  return 0;
}
