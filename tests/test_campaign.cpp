// campaign:: — counter-based sampling, soil/damage ensembles, streaming
// summaries and the campaign runner: determinism of every layer (same seed,
// same numbers — regardless of pipeline width, consumption order or
// re-generation), statistical sanity of the stratified sampler, P-squared
// vs exact quantile agreement, damage re-meshing validity, backpressure and
// early stop, and an FDM cross-validation smoke of one sampled scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <vector>

#include "src/campaign/damage_ensemble.hpp"
#include "src/campaign/runner.hpp"
#include "src/campaign/sampler.hpp"
#include "src/campaign/soil_ensemble.hpp"
#include "src/campaign/summary.hpp"
#include "src/common/error.hpp"
#include "src/engine/engine.hpp"
#include "src/engine/study.hpp"
#include "src/estimation/wenner.hpp"
#include "src/fdm/fd_solver.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/post/surface_potential.hpp"

namespace ebem::campaign {
namespace {

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

TEST(Sampler, IsAPureFunctionOfSeedIndexAndDimension) {
  const Sampler a(42, 3, 64);
  const Sampler b(42, 3, 64);
  for (std::size_t i : {0u, 17u, 63u}) {
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(a.uniform01(i, d), b.uniform01(i, d)) << i << "," << d;
      EXPECT_EQ(a.normal(i, d), b.normal(i, d)) << i << "," << d;
    }
  }
  // A different seed reshuffles the strata.
  const Sampler c(43, 3, 64);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    if (a.uniform01(i, 0) != c.uniform01(i, 0)) ++differing;
  }
  EXPECT_GT(differing, 32u);
}

TEST(Sampler, StratifiesEveryMarginal) {
  // Latin hypercube: over the campaign, each dimension puts exactly one
  // sample into each of the `count` equal-width bins.
  const std::size_t count = 32;
  const Sampler sampler(7, 3, count);
  for (std::size_t d = 0; d < 3; ++d) {
    std::set<std::size_t> strata;
    for (std::size_t i = 0; i < count; ++i) {
      const double u = sampler.uniform01(i, d);
      ASSERT_GT(u, 0.0);
      ASSERT_LT(u, 1.0);
      strata.insert(static_cast<std::size_t>(u * static_cast<double>(count)));
    }
    EXPECT_EQ(strata.size(), count) << "dimension " << d;
  }
}

TEST(Sampler, RejectsEmptyConfigurations) {
  EXPECT_THROW(Sampler(1, 0, 8), ebem::InvalidArgument);
  EXPECT_THROW(Sampler(1, 2, 0), ebem::InvalidArgument);
}

TEST(InverseNormalCdf, MatchesKnownQuantiles) {
  EXPECT_DOUBLE_EQ(inverse_normal_cdf(0.5), 0.0);
  EXPECT_NEAR(inverse_normal_cdf(0.975), 1.959963984540054, 1e-12);
  EXPECT_NEAR(inverse_normal_cdf(0.84134474606854293), 1.0, 1e-12);
  EXPECT_NEAR(inverse_normal_cdf(0.0013498980316300933), -3.0, 1e-11);
  EXPECT_NEAR(inverse_normal_cdf(1e-10), -6.361340902404056, 1e-9);
  // Symmetry.
  for (double p : {0.01, 0.1, 0.3}) {
    EXPECT_NEAR(inverse_normal_cdf(p), -inverse_normal_cdf(1.0 - p), 1e-12) << p;
  }
}

// ---------------------------------------------------------------------------
// SoilEnsemble
// ---------------------------------------------------------------------------

TEST(SoilEnsemble, ScenariosAreDeterministicAndBounded) {
  const auto nominal = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  SoilDistribution distribution = SoilDistribution::relative(nominal, 0.2, 0.2, 0.3);
  distribution.truncate_sigmas = 2.0;
  const SoilEnsemble ensemble(distribution, 64, 11);
  const SoilEnsemble again(distribution, 64, 11);
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    const soil::LayeredSoil soil = ensemble.scenario(i);
    ASSERT_EQ(soil.layer_count(), 2u);
    // Same seed, same soil — bitwise.
    EXPECT_EQ(soil.resistivity(0), again.scenario(i).resistivity(0)) << i;
    // Truncation: every parameter stays within exp(+-cap * sigma_log).
    const double cap1 = std::exp(2.0 * distribution.sigma_log_rho1);
    EXPECT_LE(soil.resistivity(0), nominal.resistivity(0) * cap1 * (1.0 + 1e-12)) << i;
    EXPECT_GE(soil.resistivity(0), nominal.resistivity(0) / cap1 * (1.0 - 1e-12)) << i;
    EXPECT_GT(soil.interface_depth(0), 0.0) << i;
  }
}

TEST(SoilEnsemble, CoversBothSidesOfTheNominal) {
  const auto nominal = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const SoilEnsemble ensemble(SoilDistribution::relative(nominal, 0.2, 0.2, 0.3), 32, 5);
  std::size_t above = 0;
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    if (ensemble.scenario(i).resistivity(0) > nominal.resistivity(0)) ++above;
  }
  // Stratified sampling of a symmetric distribution: close to half above.
  EXPECT_GE(above, 12u);
  EXPECT_LE(above, 20u);
}

TEST(SoilEnsemble, FromFitIngestsWennerUncertainty) {
  const auto truth = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  std::mt19937 rng(3);
  std::normal_distribution<double> jitter(0.0, 0.03);
  std::vector<estimation::WennerReading> readings;
  for (double a : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    const double rho = estimation::wenner_apparent_resistivity(truth, a);
    readings.push_back({a, rho * std::exp(jitter(rng))});
  }
  const estimation::TwoLayerFit fit = estimation::fit_two_layer(readings);
  ASSERT_TRUE(fit.uncertainty_valid);

  const SoilDistribution distribution = SoilDistribution::from_fit(fit);
  EXPECT_EQ(distribution.nominal.resistivity(0), fit.soil.resistivity(0));
  EXPECT_EQ(distribution.sigma_log_rho1, fit.sigma_log_rho1);
  EXPECT_EQ(distribution.sigma_log_h, fit.sigma_log_h);
  // And it samples: scenarios scatter around the fitted point.
  const SoilEnsemble ensemble(distribution, 16, 1);
  double spread = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    spread = std::max(spread, std::abs(std::log(ensemble.scenario(i).resistivity(0) /
                                                fit.soil.resistivity(0))));
  }
  EXPECT_GT(spread, 0.0);
}

TEST(SoilEnsemble, FromFitRejectsAFitWithoutUncertainty) {
  estimation::TwoLayerFit fit;  // uncertainty_valid defaults to false
  EXPECT_THROW((void)SoilDistribution::from_fit(fit), ebem::InvalidArgument);
}

TEST(SoilEnsemble, ValidatesItsDistribution) {
  SoilDistribution one_layer;
  one_layer.nominal = soil::LayeredSoil::uniform(0.01);
  EXPECT_THROW(SoilEnsemble(one_layer, 8, 1), ebem::InvalidArgument);

  SoilDistribution negative = SoilDistribution::relative(
      soil::LayeredSoil::two_layer(0.005, 0.016, 1.0), 0.1, 0.1, 0.1);
  negative.sigma_log_rho2 = -0.1;
  EXPECT_THROW(SoilEnsemble(negative, 8, 1), ebem::InvalidArgument);
  EXPECT_THROW((void)SoilDistribution::relative(soil::LayeredSoil::two_layer(0.005, 0.016, 1.0),
                                                -0.2, 0.2, 0.2),
               ebem::InvalidArgument);
}

// ---------------------------------------------------------------------------
// DamageEnsemble
// ---------------------------------------------------------------------------

DamageEnsemble small_damage_ensemble(std::size_t count, std::uint64_t seed) {
  geom::RectGridSpec spec;
  spec.length_x = 15.0;
  spec.length_y = 15.0;
  spec.cells_x = 3;
  spec.cells_y = 3;
  DamageOptions options;
  options.min_breaks = 1;
  options.max_breaks = 3;
  options.mesh.target_element_length = 2.5;
  return DamageEnsemble(geom::make_rect_grid(spec), soil::LayeredSoil::two_layer(0.005, 0.016, 1.0),
                        options, count, seed);
}

TEST(DamageEnsemble, BreaksAreDeterministicDistinctAndInRange) {
  const DamageEnsemble ensemble = small_damage_ensemble(16, 9);
  const DamageEnsemble again = small_damage_ensemble(16, 9);
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    const std::vector<ConductorBreak> breaks = ensemble.breaks(i);
    ASSERT_GE(breaks.size(), 1u) << i;
    ASSERT_LE(breaks.size(), 3u) << i;
    for (std::size_t k = 0; k < breaks.size(); ++k) {
      EXPECT_LT(breaks[k].conductor, ensemble.base().size()) << i;
      if (k > 0) EXPECT_GT(breaks[k].conductor, breaks[k - 1].conductor) << i;
    }
    // Re-generated ensemble: identical damage.
    const std::vector<ConductorBreak> replay = again.breaks(i);
    ASSERT_EQ(replay.size(), breaks.size()) << i;
    for (std::size_t k = 0; k < breaks.size(); ++k) {
      EXPECT_EQ(replay[k].conductor, breaks[k].conductor) << i;
      EXPECT_EQ(replay[k].removed, breaks[k].removed) << i;
    }
  }
}

TEST(DamageEnsemble, ScenariosAreDistinctAcrossTheEnsemble) {
  const DamageEnsemble ensemble = small_damage_ensemble(16, 9);
  std::set<std::vector<std::size_t>> signatures;
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    std::vector<std::size_t> signature;
    for (const ConductorBreak& b : ensemble.breaks(i)) {
      signature.push_back(b.conductor * 2 + (b.removed ? 1 : 0));
    }
    signatures.insert(signature);
  }
  // Not all 16 need be unique (collisions are legal samples), but the
  // ensemble must actually explore the damage space.
  EXPECT_GE(signatures.size(), 8u);
}

TEST(DamageEnsemble, RemeshingIsValidAndDeterministic) {
  const DamageEnsemble ensemble = small_damage_ensemble(8, 13);
  const geom::Mesh base_mesh =
      geom::Mesh::build(bem::split_at_interfaces(ensemble.base(), ensemble.soil()),
                        ensemble.options().mesh);
  for (std::size_t i = 0; i < ensemble.size(); ++i) {
    const std::vector<geom::Conductor> damaged = ensemble.scenario_conductors(i);
    const std::vector<ConductorBreak> breaks = ensemble.breaks(i);
    const std::size_t removed = static_cast<std::size_t>(
        std::count_if(breaks.begin(), breaks.end(), [](const auto& b) { return b.removed; }));
    const std::size_t segmented = breaks.size() - removed;
    // Removal drops one conductor; segmentation replaces one with two.
    EXPECT_EQ(damaged.size(), ensemble.base().size() - removed + segmented) << i;

    const geom::Mesh mesh = ensemble.scenario_mesh(i);
    EXPECT_GT(mesh.element_count(), 0u) << i;
    EXPECT_LT(mesh.element_count(), 2 * base_mesh.element_count()) << i;
    // Deterministic re-mesh: same element count and same coordinates.
    const geom::Mesh replay = ensemble.scenario_mesh(i);
    ASSERT_EQ(replay.element_count(), mesh.element_count()) << i;
    for (std::size_t e = 0; e < mesh.element_count(); ++e) {
      EXPECT_EQ(replay.elements()[e].a.x, mesh.elements()[e].a.x) << i;
      EXPECT_EQ(replay.elements()[e].b.z, mesh.elements()[e].b.z) << i;
    }
    // A damaged grid dissipates through less metal than the base design.
    EXPECT_LT(mesh.total_length(), base_mesh.total_length() + 1e-9) << i;
    // And the model is analyzable as-is.
    const bem::BemModel model = ensemble.scenario_model(i);
    EXPECT_EQ(model.element_count(), mesh.element_count()) << i;
  }
}

TEST(DamageEnsemble, ValidatesItsOptions) {
  geom::RectGridSpec spec;
  spec.length_x = 10.0;
  spec.length_y = 10.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  const auto base = geom::make_rect_grid(spec);
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);

  DamageOptions all_broken;
  all_broken.max_breaks = base.size();  // nothing intact
  EXPECT_THROW(DamageEnsemble(base, soil, all_broken, 4, 1), ebem::InvalidArgument);

  DamageOptions inverted;
  inverted.min_breaks = 3;
  inverted.max_breaks = 2;
  EXPECT_THROW(DamageEnsemble(base, soil, inverted, 4, 1), ebem::InvalidArgument);

  DamageOptions bad_gap;
  bad_gap.gap_fraction = 1.0;
  EXPECT_THROW(DamageEnsemble(base, soil, bad_gap, 4, 1), ebem::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Streaming summaries
// ---------------------------------------------------------------------------

TEST(StreamingMoments, MatchesClosedForms) {
  StreamingMoments moments;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) moments.add(x);
  EXPECT_EQ(moments.count(), 8u);
  EXPECT_DOUBLE_EQ(moments.mean(), 5.0);
  EXPECT_NEAR(moments.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(moments.min(), 2.0);
  EXPECT_DOUBLE_EQ(moments.max(), 9.0);
}

TEST(MetricSummary, ExactQuantilesInterpolateOrderStatistics) {
  MetricSummary summary(QuantileMode::kExact);
  for (double x = 1.0; x <= 100.0; x += 1.0) summary.add(x);
  EXPECT_DOUBLE_EQ(summary.p50(), 50.5);
  EXPECT_NEAR(summary.p95(), 95.05, 1e-12);
  EXPECT_NEAR(summary.quantile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(summary.quantile(1.0), 100.0, 1e-12);
}

TEST(MetricSummary, ExactQuantilesAreConsumptionOrderIndependent) {
  std::vector<double> values(257);
  std::mt19937 rng(17);
  std::normal_distribution<double> normal(10.0, 3.0);
  for (double& v : values) v = normal(rng);

  MetricSummary forward(QuantileMode::kExact);
  for (double v : values) forward.add(v);
  MetricSummary shuffled(QuantileMode::kExact);
  std::shuffle(values.begin(), values.end(), rng);
  for (double v : values) shuffled.add(v);

  for (double p : kSummaryProbabilities) {
    EXPECT_EQ(forward.quantile(p), shuffled.quantile(p)) << p;
  }
}

TEST(P2Quantile, AgreesWithExactOnALargeSample) {
  std::mt19937 rng(23);
  std::lognormal_distribution<double> lognormal(0.0, 0.5);
  MetricSummary exact(QuantileMode::kExact);
  MetricSummary p2(QuantileMode::kP2);
  for (std::size_t i = 0; i < 5000; ++i) {
    const double x = lognormal(rng);
    exact.add(x);
    p2.add(x);
  }
  for (double p : kSummaryProbabilities) {
    // P-squared is an approximation; a few percent on a smooth unimodal
    // distribution is its design accuracy.
    EXPECT_NEAR(p2.quantile(p), exact.quantile(p), 0.05 * exact.quantile(p)) << p;
  }
  // P2 is deterministic for a fixed insertion order.
  MetricSummary replay(QuantileMode::kP2);
  std::mt19937 rng2(23);
  std::lognormal_distribution<double> lognormal2(0.0, 0.5);
  for (std::size_t i = 0; i < 5000; ++i) replay.add(lognormal2(rng2));
  for (double p : kSummaryProbabilities) EXPECT_EQ(replay.quantile(p), p2.quantile(p)) << p;
}

TEST(P2Quantile, IsExactBelowFiveObservations) {
  P2Quantile median(0.5);
  EXPECT_THROW((void)median.value(), ebem::InvalidArgument);
  median.add(3.0);
  EXPECT_DOUBLE_EQ(median.value(), 3.0);
  median.add(1.0);
  EXPECT_DOUBLE_EQ(median.value(), 2.0);
  median.add(2.0);
  EXPECT_DOUBLE_EQ(median.value(), 2.0);
  EXPECT_THROW(P2Quantile(0.0), ebem::InvalidArgument);
  EXPECT_THROW(P2Quantile(1.0), ebem::InvalidArgument);
}

TEST(MetricSummary, ConfidenceHalfWidthShrinksAndGatesOnSampleSize) {
  MetricSummary small(QuantileMode::kExact);
  for (std::size_t i = 0; i < 10; ++i) small.add(static_cast<double>(i));
  // 10 samples cannot bracket P95 at z=1.96.
  EXPECT_FALSE(small.confidence_half_width(0.95).has_value());

  std::mt19937 rng(31);
  std::normal_distribution<double> normal(100.0, 10.0);
  MetricSummary medium(QuantileMode::kExact);
  MetricSummary large(QuantileMode::kExact);
  for (std::size_t i = 0; i < 200; ++i) medium.add(normal(rng));
  for (std::size_t i = 0; i < 200; ++i) large.add(normal(rng));
  for (std::size_t i = 0; i < 1800; ++i) large.add(normal(rng));

  const auto hw_medium = medium.confidence_half_width(0.95);
  const auto hw_large = large.confidence_half_width(0.95);
  ASSERT_TRUE(hw_medium.has_value());
  ASSERT_TRUE(hw_large.has_value());
  EXPECT_GT(*hw_medium, 0.0);
  EXPECT_LT(*hw_large, *hw_medium);

  // P2 mode never claims a bound.
  MetricSummary p2(QuantileMode::kP2);
  for (std::size_t i = 0; i < 1000; ++i) p2.add(normal(rng));
  EXPECT_FALSE(p2.confidence_half_width(0.95).has_value());
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

std::vector<geom::Conductor> small_grid() {
  geom::RectGridSpec spec;
  spec.length_x = 15.0;
  spec.length_y = 15.0;
  spec.cells_x = 3;
  spec.cells_y = 3;
  return geom::make_rect_grid(spec);
}

SoilSweep small_soil_sweep(std::size_t count, std::uint64_t seed) {
  const auto nominal = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  geom::MeshOptions mesh;
  mesh.target_element_length = 5.0;
  return SoilSweep(small_grid(), mesh,
                   SoilEnsemble(SoilDistribution::relative(nominal, 0.2, 0.2, 0.3), count, seed));
}

CampaignResult run_soil_campaign(std::size_t pipeline_width, std::size_t count,
                                 bool cache = true) {
  engine::ExecutionConfig config;
  config.num_threads = 1;
  config.use_congruence_cache = cache;
  config.pipeline_width = pipeline_width;
  engine::Engine engine(config);
  engine::Study study(engine);
  CampaignOptions options;
  options.window = 2 * pipeline_width;
  options.fault_current = 100.0;
  SafetyPatch patch;
  patch.x0 = 0.0;
  patch.x1 = 15.0;
  patch.y0 = 0.0;
  patch.y1 = 15.0;
  patch.nx = 3;
  patch.ny = 3;
  patch.criteria.surface_resistivity = 3000.0;
  options.safety = patch;
  Runner runner(study, options);
  return runner.run(small_soil_sweep(count, 77));
}

/// Cache-on vs cache-off parity of every tracked quantile, to round-off.
void expect_percentiles_near(const CampaignResult& on, const CampaignResult& off) {
  const auto near = [](double a, double b) {
    return a == b || std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
  };
  const std::pair<const MetricSummary*, const MetricSummary*> metrics[] = {
      {&on.resistance, &off.resistance},
      {&on.gpr, &off.gpr},
      {&on.touch_margin, &off.touch_margin},
      {&on.step_margin, &off.step_margin}};
  for (const auto& [a, b] : metrics) {
    ASSERT_EQ(a->count(), b->count());
    if (a->count() == 0) continue;
    for (double p : kSummaryProbabilities) EXPECT_PRED2(near, a->quantile(p), b->quantile(p)) << p;
  }
}

TEST(Runner, PercentilesAreBitIdenticalAcrossPipelineWidths) {
  // The acceptance contract: fixed seed, workers 1 / 2 / 4 — identical
  // percentile output, because observations commit in scenario-index order
  // no matter how completions interleave.
  const CampaignResult w1 = run_soil_campaign(1, 12);
  const CampaignResult w2 = run_soil_campaign(2, 12);
  const CampaignResult w4 = run_soil_campaign(4, 12);

  ASSERT_EQ(w1.completed, 12u);
  ASSERT_EQ(w2.completed, 12u);
  ASSERT_EQ(w4.completed, 12u);
  for (double p : kSummaryProbabilities) {
    EXPECT_EQ(w1.resistance.quantile(p), w2.resistance.quantile(p)) << p;
    EXPECT_EQ(w1.resistance.quantile(p), w4.resistance.quantile(p)) << p;
    EXPECT_EQ(w1.gpr.quantile(p), w2.gpr.quantile(p)) << p;
    EXPECT_EQ(w1.gpr.quantile(p), w4.gpr.quantile(p)) << p;
    EXPECT_EQ(w1.touch_margin.quantile(p), w4.touch_margin.quantile(p)) << p;
    EXPECT_EQ(w1.step_margin.quantile(p), w4.step_margin.quantile(p)) << p;
  }
  EXPECT_EQ(w1.resistance.moments().mean(), w4.resistance.moments().mean());
  EXPECT_EQ(w1.touch_violations, w4.touch_violations);

  // The backpressure window held.
  EXPECT_LE(w2.peak_in_flight, 4u);
  EXPECT_LE(w4.peak_in_flight, 8u);
}

TEST(Runner, SoilSweepReportsPhysicallyCoherentDistributions) {
  const CampaignResult result = run_soil_campaign(2, 12);
  EXPECT_EQ(result.scenarios, 12u);
  EXPECT_FALSE(result.stopped_early);
  EXPECT_EQ(result.resistance.count(), 12u);
  EXPECT_EQ(result.touch_margin.count(), 12u);
  EXPECT_EQ(result.step_margin.count(), 12u);

  // Resistance varies across soils and the percentiles are ordered.
  EXPECT_GT(result.resistance.moments().stddev(), 0.0);
  EXPECT_LE(result.resistance.p5(), result.resistance.p50());
  EXPECT_LE(result.resistance.p50(), result.resistance.p95());
  EXPECT_LE(result.resistance.p95(), result.resistance.p99());

  // fault_current mode: GPR_i = I_f x R_eq_i, so the quantiles map through.
  EXPECT_NEAR(result.gpr.p95(), 100.0 * result.resistance.p95(),
              1e-9 * result.gpr.p95());

  // Every scenario changed the physics, so a block replayed across soils
  // would show as a deviation from the cache-off run far beyond round-off.
  expect_percentiles_near(result, run_soil_campaign(2, 12, /*cache=*/false));
  EXPECT_GT(result.phases.counter(bem::kCacheMissesCounter), 0.0);
  EXPECT_GT(result.phases.total_wall_seconds(), 0.0);
  EXPECT_GT(result.wall_seconds, 0.0);
}

CampaignResult run_damage_campaign(bool cache) {
  engine::ExecutionConfig config;
  config.use_congruence_cache = cache;
  engine::Engine engine(config);
  engine::Study study(engine);
  DamageOptions options;
  options.mesh.target_element_length = 5.0;
  DamageSweep sweep(DamageEnsemble(small_grid(), soil::LayeredSoil::two_layer(0.005, 0.016, 1.0),
                                   options, 8, 21));
  CampaignOptions campaign;
  campaign.window = 4;
  Runner runner(study, campaign);
  return runner.run(sweep);
}

TEST(Runner, DamageSweepSharesTheWarmCache) {
  const CampaignResult result = run_damage_campaign(/*cache=*/true);

  EXPECT_EQ(result.completed, 8u);
  // One physics across the batch: later scenarios replay the undamaged
  // majority of the grid, to the cache-off numbers.
  EXPECT_GT(result.cache.hits, 0u);
  expect_percentiles_near(result, run_damage_campaign(/*cache=*/false));
  // Without a safety patch, margins stay empty but resistances flow.
  EXPECT_EQ(result.touch_margin.count(), 0u);
  EXPECT_EQ(result.resistance.count(), 8u);
  // Damage can only weaken the grid relative to... nothing monotone per
  // scenario, but every Req must be physical.
  EXPECT_GT(result.resistance.moments().min(), 0.0);
}

/// Forwards to another source, optionally truncated to its first `size`
/// scenarios, and counts model() calls per scenario index.
class CountingSource final : public ScenarioSource {
 public:
  CountingSource(const ScenarioSource& inner, std::size_t size) : inner_(inner), calls_(size, 0) {}

  [[nodiscard]] std::size_t size() const override { return calls_.size(); }
  [[nodiscard]] bem::BemModel model(std::size_t index) const override {
    ++calls_[index];
    return inner_.model(index);
  }
  [[nodiscard]] double surface_soil_resistivity(std::size_t index) const override {
    return inner_.surface_soil_resistivity(index);
  }
  [[nodiscard]] const std::vector<std::size_t>& calls() const { return calls_; }

 private:
  const ScenarioSource& inner_;
  mutable std::vector<std::size_t> calls_;
};

SafetyPatch small_patch() {
  SafetyPatch patch;
  patch.x1 = 15.0;
  patch.y1 = 15.0;
  patch.nx = 4;
  patch.ny = 4;
  patch.criteria.surface_resistivity = 3000.0;
  return patch;
}

DamageSweep small_damage_sweep(std::size_t count) {
  DamageOptions options;
  options.mesh.target_element_length = 5.0;
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  return DamageSweep(DamageEnsemble(small_grid(), soil, options, count, 21));
}

TEST(Runner, SafetyStepUsesTheStudysPhysics) {
  // A constant basis and a loose image series: the safety patch must be
  // evaluated with the basis and series the scenario was solved with.
  bem::AnalysisOptions physics;
  physics.gpr = 1000.0;
  physics.assembly.integrator.basis = bem::BasisKind::kConstant;
  physics.assembly.series.tolerance = 1e-5;
  engine::ExecutionConfig config;
  config.num_threads = 2;
  engine::Engine engine(config);
  engine::Study study(engine, physics);
  const DamageSweep sweep = small_damage_sweep(4);
  const CountingSource first(sweep, 1);
  CampaignOptions options;
  options.window = 2;
  options.safety = small_patch();
  Runner runner(study, options);
  const CampaignResult result = runner.run(first);
  ASSERT_EQ(result.completed, 1u);

  // Hand-built reference for scenario 0 on a separate serial engine.
  const bem::BemModel model = sweep.model(0);
  engine::Engine reference_engine;
  engine::Study reference_study(reference_engine, physics);
  const bem::AnalysisResult solved = reference_study.analyze(model);
  post::PotentialOptions potential;
  potential.integrator = physics.assembly.integrator;
  potential.series = physics.assembly.series;
  const post::PotentialEvaluator evaluator(model, solved.sigma, potential);
  const SafetyPatch& patch = *options.safety;
  post::SafetyCriteria criteria = patch.criteria;
  criteria.soil_resistivity = sweep.surface_soil_resistivity(0);
  const post::SafetyAssessment expected =
      post::assess_safety(evaluator, physics.gpr, patch.x0, patch.x1, patch.y0, patch.y1,
                          patch.nx, patch.ny, criteria);
  const double touch = expected.tolerable_touch - expected.max_touch_voltage;
  const double step = expected.tolerable_step - expected.max_step_voltage;
  EXPECT_NEAR(result.touch_margin.moments().min(), touch, 1e-12 * std::abs(touch));
  EXPECT_NEAR(result.step_margin.moments().min(), step, 1e-12 * std::abs(step));
}

TEST(Runner, MeshesEachScenarioOnce) {
  // The safety step evaluates the model copy kept at submit; the source is
  // never asked to re-derive a scenario.
  engine::ExecutionConfig config;
  config.num_threads = 2;
  engine::Engine engine(config);
  engine::Study study(engine);
  const DamageSweep sweep = small_damage_sweep(6);
  const CountingSource counting(sweep, sweep.size());
  CampaignOptions options;
  options.window = 3;
  options.safety = small_patch();
  Runner runner(study, options);
  const CampaignResult result = runner.run(counting);
  EXPECT_EQ(result.completed, 6u);
  EXPECT_EQ(result.touch_margin.count(), 6u);
  EXPECT_EQ(counting.calls(), std::vector<std::size_t>(6, 1));
}

CampaignResult run_patched_damage_campaign(bool cache, bool patch) {
  engine::ExecutionConfig config;
  config.num_threads = 2;
  config.use_congruence_cache = cache;
  engine::Engine engine(config);
  engine::Study study(engine);
  CampaignOptions options;
  options.window = 2;
  options.fault_current = 100.0;
  if (patch) options.safety = small_patch();
  Runner runner(study, options);
  return runner.run(small_damage_sweep(6));
}

TEST(Runner, SafetyStepIsTimedAsResultsStorage) {
  const CampaignResult patched = run_patched_damage_campaign(/*cache=*/true, /*patch=*/true);
  const double safety = patched.phases.counter(kSafetySecondsCounter);
  EXPECT_GT(safety, 0.0);
  // Results Storage holds the safety steps beside each run's own result
  // extraction.
  EXPECT_GE(patched.phases.wall_seconds(Phase::kResultsStorage), safety);
  EXPECT_GT(patched.phases.cpu_seconds(Phase::kResultsStorage), 0.0);
  const CampaignResult bare = run_patched_damage_campaign(/*cache=*/true, /*patch=*/false);
  EXPECT_EQ(bare.phases.counter(kSafetySecondsCounter), 0.0);
}

TEST(Runner, DamageSweepReplaysPatchInfluencesToRoundOff) {
  // The runner's influence cache lives across the damage scenarios; the
  // margins it yields match the cache-off evaluation to round-off.
  const CampaignResult on = run_patched_damage_campaign(/*cache=*/true, /*patch=*/true);
  EXPECT_EQ(on.touch_margin.count(), 6u);
  expect_percentiles_near(on, run_patched_damage_campaign(/*cache=*/false, /*patch=*/true));
}

TEST(Runner, EarlyStopTerminatesOnATightPercentile) {
  engine::ExecutionConfig config;
  config.num_threads = 1;
  engine::Engine engine(config);
  engine::Study study(engine);
  CampaignOptions options;
  options.window = 4;
  options.early_stop.relative_half_width = 0.5;  // generous: stops quickly
  options.early_stop.min_scenarios = 40;
  options.early_stop.quantile = 0.5;
  Runner runner(study, options);
  const CampaignResult result = runner.run(small_soil_sweep(64, 3));
  EXPECT_TRUE(result.stopped_early);
  EXPECT_GE(result.completed, 40u);
  EXPECT_LT(result.completed, 64u);
  // The committed statistics are still a prefix of the deterministic
  // scenario stream: re-running with the same settings reproduces them.
  engine::Engine engine2(config);
  engine::Study study2(engine2);
  Runner runner2(study2, options);
  const CampaignResult replay = runner2.run(small_soil_sweep(64, 3));
  EXPECT_EQ(replay.completed, result.completed);
  EXPECT_EQ(replay.resistance.p50(), result.resistance.p50());
}

TEST(Runner, ValidatesItsOptions) {
  engine::Engine engine;
  engine::Study study(engine);
  CampaignOptions zero_window;
  zero_window.window = 0;
  EXPECT_THROW(Runner(study, zero_window), ebem::InvalidArgument);

  CampaignOptions p2_early_stop;
  p2_early_stop.quantiles = QuantileMode::kP2;
  p2_early_stop.early_stop.relative_half_width = 0.1;
  EXPECT_THROW(Runner(study, p2_early_stop), ebem::InvalidArgument);

  CampaignOptions flat_patch;
  flat_patch.safety = SafetyPatch{};  // zero-area rectangle
  EXPECT_THROW(Runner(study, flat_patch), ebem::InvalidArgument);
}

// ---------------------------------------------------------------------------
// FDM cross-validation of a sampled scenario
// ---------------------------------------------------------------------------

TEST(CampaignCrossValidation, SampledSoilScenarioMatchesFdm) {
  // One sampled soil from a campaign ensemble, analyzed by both solvers: the
  // stochastic machinery must hand the engine physically meaningful models,
  // not just numbers. Thick rod (FD-resolvable), validation tolerance as in
  // test_fdm.cpp.
  const auto nominal = soil::LayeredSoil::two_layer(0.01, 0.05, 3.0);
  const SoilEnsemble ensemble(SoilDistribution::relative(nominal, 0.15, 0.15, 0.1), 8, 41);
  const soil::LayeredSoil sampled = ensemble.scenario(5);

  const std::vector<geom::Conductor> rod{{{0, 0, -0.5}, {0, 0, -8.5}, 0.5}};
  geom::MeshOptions mesh_options;
  mesh_options.target_element_length = 1.0;
  const bem::BemModel model(
      geom::Mesh::build(bem::split_at_interfaces(rod, sampled), mesh_options), sampled);
  const double bem_req = bem::analyze(model, {}).equivalent_resistance;

  fdm::FdOptions options;
  options.padding = 40.0;
  options.cells_x = 48;
  options.cells_y = 48;
  options.cells_z = 36;
  const fdm::FdResult fd = fdm::solve_grounding(rod, sampled, options);
  ASSERT_TRUE(fd.converged);
  EXPECT_NEAR(fd.equivalent_resistance, bem_req, 0.15 * bem_req);
}

}  // namespace
}  // namespace ebem::campaign
