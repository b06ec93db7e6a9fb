// Scenario-campaign bench: a stochastic two-layer soil sweep (and a damage
// sweep) of the bench grid driven through campaign::Runner, at pipeline
// widths 1 / 2 / 4 with one pool thread. One JSON line per (sweep, width)
// for artifact archiving and the CI bench-regression gate.
//
// What the lines show:
//  * the soil sweep is the warm cache's worst case — every scenario changes
//    the physics and starts a fresh cache. Its hit_rate stays high anyway:
//    congruent pairs *within* one grid replay each other even on a fresh
//    cache — what the physics change costs is the cross-scenario increment
//    (compare the damage sweep's hit_rate);
//  * the damage sweep keeps one physics and additionally replays the
//    undamaged majority of the grid across scenarios — the measured
//    argument for batching campaigns by physics;
//  * p5/p50/p95/p99 of GPR and the safety margins are byte-for-byte
//    identical across widths: observations commit in scenario-index order;
//  * safety_seconds is the wall time of the touch/step patches
//    (campaign::kSafetySecondsCounter); with the cache on, their
//    point-element influences replay by congruence — within each scenario
//    on the soil sweep, across scenarios on the damage sweep.
//
// Usage: bench_campaign [scenarios] [cells] [--check]
//   scenarios  soil-sweep ensemble size (default 256; the damage sweep runs
//              scenarios/4). The sampler is stratified per ensemble size, so
//              percentiles are comparable only at equal scenario counts.
//   cells      bench grid cells per side, 5 m pitch (default 6 -> 84
//              elements per undamaged scenario)
//   --check    CI determinism smoke: exit nonzero unless the percentile
//              report (resistance, GPR, touch/step margins — all four
//              tracked quantiles) is bit-identical across widths 1/2/4,
//              the soil sweep's report matches a cache-off engine's to
//              <= 1e-12 relative (no block or influence replayed across
//              physics), the damage sweep's does too (blocks and
//              influences replayed across scenarios), peak in-flight
//              stayed within the window, and the damage sweep has warm
//              hits > 0. The cache-off sweeps are extra runs, not printed.
//
// The JSON lines feed CI's bench-regression gate (bench/compare_bench.py vs
// bench/baselines/); see bench/baselines/README.md for re-baselining.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/campaign/damage_ensemble.hpp"
#include "src/campaign/runner.hpp"
#include "src/campaign/soil_ensemble.hpp"
#include "src/campaign/summary.hpp"
#include "src/common/resource_usage.hpp"
#include "src/engine/engine.hpp"
#include "src/engine/study.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/parallel/thread_pool.hpp"

namespace {

using namespace ebem;

constexpr std::uint64_t kSeed = 2026;
constexpr double kFaultCurrent = 1000.0;  // A

std::vector<geom::Conductor> bench_grid(std::size_t cells) {
  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells);
  spec.length_y = 5.0 * static_cast<double>(cells);
  spec.cells_x = cells;
  spec.cells_y = cells;
  return geom::make_rect_grid(spec);
}

campaign::CampaignOptions campaign_options(std::size_t cells, std::size_t width) {
  campaign::CampaignOptions options;
  options.window = 2 * width;
  options.fault_current = kFaultCurrent;
  campaign::SafetyPatch patch;
  patch.x0 = 0.0;
  patch.x1 = 5.0 * static_cast<double>(cells);
  patch.y0 = 0.0;
  patch.y1 = 5.0 * static_cast<double>(cells);
  patch.nx = 4;
  patch.ny = 4;
  patch.criteria.surface_resistivity = 3000.0;
  options.safety = patch;
  return options;
}

campaign::CampaignResult run_sweep(const campaign::ScenarioSource& source, std::size_t cells,
                                   std::size_t width, bool cache = true) {
  engine::ExecutionConfig config;
  config.num_threads = 1;  // determinism contract: vary only the width
  config.use_congruence_cache = cache;
  config.pipeline_width = width;
  config.max_pending_runs = 2 * width;  // engine-level backstop of the window
  engine::Engine engine(config);
  engine::Study study(engine);
  campaign::Runner runner(study, campaign_options(cells, width));
  return runner.run(source);
}

void emit(const char* sweep, std::size_t scenarios, std::size_t cells, std::size_t width,
          const campaign::CampaignResult& result) {
  std::printf(
      "{\"bench\":\"campaign\",\"sweep\":\"%s\",\"scenarios\":%zu,\"cells\":%zu,"
      "\"width\":%zu,\"completed\":%zu,\"seconds\":%.6f,\"scenarios_per_second\":%.3f,"
      "\"hit_rate\":%.4f,\"safety_seconds\":%.6f,"
      "\"p5_gpr\":%.6f,\"p50_gpr\":%.6f,\"p95_gpr\":%.6f,\"p99_gpr\":%.6f,"
      "\"p5_touch_margin\":%.6f,\"p50_touch_margin\":%.6f,\"p95_touch_margin\":%.6f,"
      "\"touch_violations\":%zu,\"peak_in_flight\":%zu,\"window\":%zu,"
      "\"hw_concurrency\":%zu,\"pool_threads\":1,\"peak_rss_kb\":%zu}\n",
      sweep, scenarios, cells, width, result.completed, result.wall_seconds,
      result.wall_seconds > 0.0 ? static_cast<double>(result.completed) / result.wall_seconds
                                : 0.0,
      result.cache.hit_rate(), result.phases.counter(campaign::kSafetySecondsCounter),
      result.gpr.p5(), result.gpr.p50(), result.gpr.p95(),
      result.gpr.p99(), result.touch_margin.p5(), result.touch_margin.p50(),
      result.touch_margin.p95(), result.touch_violations, result.peak_in_flight,
      2 * width, par::hardware_threads(), peak_rss_bytes() / 1024);
}

/// Largest relative deviation between two reports' tracked quantiles.
double max_percentile_deviation(const campaign::CampaignResult& a,
                                const campaign::CampaignResult& b) {
  double worst = 0.0;
  const auto track = [&](double x, double y) {
    const double d = x == y ? 0.0 : std::abs(x - y) / std::max(std::abs(x), std::abs(y));
    if (!(d <= worst)) worst = d;  // NaN sticks
  };
  for (const double p : campaign::kSummaryProbabilities) {
    track(a.resistance.quantile(p), b.resistance.quantile(p));
    track(a.gpr.quantile(p), b.gpr.quantile(p));
    track(a.touch_margin.quantile(p), b.touch_margin.quantile(p));
    track(a.step_margin.quantile(p), b.step_margin.quantile(p));
  }
  return worst;
}

bool percentiles_identical(const campaign::CampaignResult& a, const campaign::CampaignResult& b) {
  for (const double p : campaign::kSummaryProbabilities) {
    if (a.resistance.quantile(p) != b.resistance.quantile(p)) return false;
    if (a.gpr.quantile(p) != b.gpr.quantile(p)) return false;
    if (a.touch_margin.quantile(p) != b.touch_margin.quantile(p)) return false;
    if (a.step_margin.quantile(p) != b.step_margin.quantile(p)) return false;
  }
  return a.touch_violations == b.touch_violations && a.step_violations == b.step_violations;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t scenarios = 256;
  std::size_t cells = 6;
  bool check = false;
  std::size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (positional == 0) {
      scenarios = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    } else {
      cells = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    }
  }
  if (scenarios < 8 || cells < 2) {
    std::fprintf(stderr, "usage: bench_campaign [scenarios >= 8] [cells >= 2] [--check]\n");
    return 1;
  }

  const std::vector<geom::Conductor> grid = bench_grid(cells);
  const auto nominal = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);

  // Soil sweep at widths 1 / 2 / 4 — the determinism triple.
  const campaign::SoilSweep soil_sweep(
      grid, {},
      campaign::SoilEnsemble(campaign::SoilDistribution::relative(nominal, 0.2, 0.2, 0.3),
                             scenarios, kSeed));
  std::vector<campaign::CampaignResult> soil_results;
  for (const std::size_t width : {1u, 2u, 4u}) {
    soil_results.push_back(run_sweep(soil_sweep, cells, width));
    emit("soil", scenarios, cells, width, soil_results.back());
  }

  // Damage sweep (one physics, warm cache shared across scenarios).
  campaign::DamageOptions damage_options;
  damage_options.max_breaks = 3;
  const campaign::DamageSweep damage_sweep(
      campaign::DamageEnsemble(grid, nominal, damage_options, scenarios / 4, kSeed));
  const campaign::CampaignResult damage = run_sweep(damage_sweep, cells, 2);
  emit("damage", scenarios / 4, cells, 2, damage);

  if (!check) return 0;

  bool ok = true;
  if (!percentiles_identical(soil_results[0], soil_results[1]) ||
      !percentiles_identical(soil_results[0], soil_results[2])) {
    std::fprintf(stderr,
                 "bench_campaign: percentile report differs across pipeline widths 1/2/4\n");
    ok = false;
  }
  for (std::size_t i = 0; i < soil_results.size(); ++i) {
    const std::size_t window = 2 * (std::size_t{1} << i);
    if (soil_results[i].peak_in_flight > window) {
      std::fprintf(stderr, "bench_campaign: peak in-flight %zu exceeded window %zu\n",
                   soil_results[i].peak_in_flight, window);
      ok = false;
    }
  }
  // Every soil scenario changes the physics: a block or influence replayed
  // across soils would move the percentiles far beyond round-off. The damage
  // sweep replays both across its scenarios, to round-off.
  const double soil_deviation =
      max_percentile_deviation(soil_results[0], run_sweep(soil_sweep, cells, 1, /*cache=*/false));
  const double damage_deviation =
      max_percentile_deviation(damage, run_sweep(damage_sweep, cells, 2, /*cache=*/false));
  for (const auto& [sweep, deviation] :
       {std::pair{"soil", soil_deviation}, std::pair{"damage", damage_deviation}}) {
    if (!(deviation <= 1e-12)) {
      std::fprintf(stderr,
                   "bench_campaign: %s sweep deviates from the cache-off engine by %.3e\n",
                   sweep, deviation);
      ok = false;
    }
  }
  if (damage.cache.hits == 0) {
    std::fprintf(stderr, "bench_campaign: damage sweep produced no warm-cache hits\n");
    ok = false;
  }
  if (damage.peak_in_flight > 4) {
    std::fprintf(stderr, "bench_campaign: damage sweep peak in-flight exceeded window\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
