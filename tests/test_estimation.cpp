// Wenner sounding forward model and two-layer inversion.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "src/common/error.hpp"
#include "src/estimation/wenner.hpp"

namespace ebem::estimation {
namespace {

TEST(WennerForward, UniformSoilReturnsTrueResistivity) {
  const auto soil = soil::LayeredSoil::uniform(0.02);  // rho = 50
  for (double a : {0.5, 2.0, 10.0, 50.0}) {
    EXPECT_DOUBLE_EQ(wenner_apparent_resistivity(soil, a), 50.0);
  }
}

TEST(WennerForward, SmallSpacingSeesUpperLayer) {
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);  // rho1=200, rho2=62.5
  EXPECT_NEAR(wenner_apparent_resistivity(soil, 0.05), 200.0, 2.0);
}

TEST(WennerForward, LargeSpacingSeesLowerLayer) {
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  EXPECT_NEAR(wenner_apparent_resistivity(soil, 500.0), 62.5, 2.0);
}

TEST(WennerForward, CurveIsMonotoneForTwoLayerContrast) {
  // With rho1 > rho2 the apparent resistivity decreases with spacing.
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  double previous = wenner_apparent_resistivity(soil, 0.1);
  for (double a : {0.3, 1.0, 3.0, 10.0, 30.0, 100.0}) {
    const double rho = wenner_apparent_resistivity(soil, a);
    EXPECT_LT(rho, previous) << a;
    previous = rho;
  }
}

TEST(WennerForward, EqualLayersGiveFlatCurve) {
  const auto soil = soil::LayeredSoil::two_layer(0.01, 0.01, 2.0);
  EXPECT_NEAR(wenner_apparent_resistivity(soil, 0.5), 100.0, 1e-9);
  EXPECT_NEAR(wenner_apparent_resistivity(soil, 50.0), 100.0, 1e-9);
}

TEST(WennerForward, RejectsBadSpacing) {
  const auto soil = soil::LayeredSoil::uniform(0.01);
  EXPECT_THROW((void)wenner_apparent_resistivity(soil, 0.0), ebem::InvalidArgument);
}

std::vector<WennerReading> synthetic_survey(const soil::LayeredSoil& soil, double noise,
                                            unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> jitter(0.0, noise);
  std::vector<WennerReading> readings;
  for (double a : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    const double rho = wenner_apparent_resistivity(soil, a);
    readings.push_back({a, rho * std::exp(jitter(rng))});
  }
  return readings;
}

struct FitCase {
  double rho1;
  double rho2;
  double h;
  const char* name;
};

class TwoLayerInversion : public ::testing::TestWithParam<FitCase> {};

TEST_P(TwoLayerInversion, RecoversSyntheticParameters) {
  const FitCase& c = GetParam();
  const auto truth = soil::LayeredSoil::two_layer(1.0 / c.rho1, 1.0 / c.rho2, c.h);
  const auto readings = synthetic_survey(truth, 0.0, 1);
  const TwoLayerFit fit = fit_two_layer(readings);
  EXPECT_TRUE(fit.converged) << fit.rms_log_misfit;
  EXPECT_NEAR(fit.soil.resistivity(0), c.rho1, 0.02 * c.rho1) << c.name;
  EXPECT_NEAR(fit.soil.resistivity(1), c.rho2, 0.02 * c.rho2) << c.name;
  EXPECT_NEAR(fit.soil.interface_depth(0), c.h, 0.05 * c.h) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, TwoLayerInversion,
    ::testing::Values(FitCase{200.0, 62.5, 1.0, "barbera_like"},
                      FitCase{400.0, 50.0, 0.7, "balaidos_like"},
                      FitCase{50.0, 300.0, 2.0, "conductive_over_resistive"},
                      FitCase{100.0, 120.0, 1.5, "weak_contrast"}),
    [](const auto& info) { return info.param.name; });

TEST(TwoLayerInversion, ToleratesMeasurementNoise) {
  const auto truth = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const auto readings = synthetic_survey(truth, 0.02, 7);  // 2% log-noise
  const TwoLayerFit fit = fit_two_layer(readings);
  EXPECT_NEAR(fit.soil.resistivity(0), 200.0, 0.15 * 200.0);
  EXPECT_NEAR(fit.soil.resistivity(1), 62.5, 0.15 * 62.5);
  EXPECT_NEAR(fit.soil.interface_depth(0), 1.0, 0.35);
}

TEST(TwoLayerInversion, RequiresThreeReadings) {
  EXPECT_THROW((void)fit_two_layer({{1.0, 100.0}, {2.0, 90.0}}), ebem::InvalidArgument);
}

TEST(TwoLayerInversion, RejectsNonPositiveReadings) {
  EXPECT_THROW((void)fit_two_layer({{1.0, 100.0}, {2.0, -90.0}, {4.0, 80.0}}),
               ebem::InvalidArgument);
}

TEST(FitUncertainty, RecoversTheInjectedNoiseLevel) {
  // Synthetic sounding with known 3% log-noise: the residual sigma must
  // estimate that noise, the parameter sigmas must be positive/finite, and
  // the truth must lie within a few combined sigmas of the fit.
  const auto truth = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const double noise = 0.03;
  const auto readings = synthetic_survey(truth, noise, 11);
  const TwoLayerFit fit = fit_two_layer(readings);
  ASSERT_TRUE(fit.converged);
  ASSERT_TRUE(fit.uncertainty_valid);

  // 9 readings, 3 parameters: s is a 6-dof noise estimate — loose bracket.
  EXPECT_GT(fit.residual_sigma, 0.3 * noise);
  EXPECT_LT(fit.residual_sigma, 3.0 * noise);

  for (double sigma : {fit.sigma_log_rho1, fit.sigma_log_rho2, fit.sigma_log_h}) {
    EXPECT_GT(sigma, 0.0);
    EXPECT_TRUE(std::isfinite(sigma));
  }
  // Coverage: the generating parameters sit inside ~6-sigma intervals (the
  // sigmas are themselves 6-dof estimates, so the bracket is generous).
  EXPECT_LT(std::abs(std::log(truth.resistivity(0) / fit.soil.resistivity(0))),
            6.0 * fit.sigma_log_rho1);
  EXPECT_LT(std::abs(std::log(truth.resistivity(1) / fit.soil.resistivity(1))),
            6.0 * fit.sigma_log_rho2);
  EXPECT_LT(std::abs(std::log(truth.interface_depth(0) / fit.soil.interface_depth(0))),
            6.0 * fit.sigma_log_h);
}

TEST(FitUncertainty, ScalesWithTheNoise) {
  const auto truth = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const TwoLayerFit quiet = fit_two_layer(synthetic_survey(truth, 0.01, 5));
  const TwoLayerFit loud = fit_two_layer(synthetic_survey(truth, 0.08, 5));
  ASSERT_TRUE(quiet.uncertainty_valid);
  ASSERT_TRUE(loud.uncertainty_valid);
  EXPECT_GT(loud.residual_sigma, quiet.residual_sigma);
  EXPECT_GT(loud.sigma_log_rho1, quiet.sigma_log_rho1);
  EXPECT_GT(loud.sigma_log_h, quiet.sigma_log_h);
}

TEST(FitUncertainty, NoiseFreeDataGivesNearZeroSigmas) {
  const auto truth = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const TwoLayerFit fit = fit_two_layer(synthetic_survey(truth, 0.0, 1));
  ASSERT_TRUE(fit.uncertainty_valid);
  EXPECT_LT(fit.residual_sigma, 1e-4);
  EXPECT_LT(fit.sigma_log_rho1, 1e-3);
}

TEST(FitUncertainty, IsInvalidWithoutRedundancy) {
  // Exactly as many readings as parameters: zero residual degrees of
  // freedom, so no noise estimate and no covariance.
  const auto truth = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  std::vector<WennerReading> three;
  for (double a : {0.5, 2.0, 16.0}) {
    three.push_back({a, wenner_apparent_resistivity(truth, a)});
  }
  const TwoLayerFit fit = fit_two_layer(three);
  EXPECT_FALSE(fit.uncertainty_valid);
}

TEST(FitUncertainty, IsInvalidOnAFlatCurve) {
  // Equal layers: the sounding carries no information about h (the Jacobian
  // column for log h is ~0), J^T J is singular and the guard must refuse to
  // report sigmas rather than invert noise.
  const auto flat = soil::LayeredSoil::two_layer(0.01, 0.01, 2.0);
  const TwoLayerFit fit = fit_two_layer(synthetic_survey(flat, 0.0, 1));
  EXPECT_FALSE(fit.uncertainty_valid);
}

}  // namespace
}  // namespace ebem::estimation
