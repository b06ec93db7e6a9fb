// The three closed-loop library workloads: paper_cold (the paper's two
// substations, cache off) and the two campaign sweeps, damage_warm (warm
// cache replay) and soil_cold (a physics change and a cache drop per
// scenario). Each measures units back to back until the window closes,
// then verifies the measured outputs against a fresh 1-thread, cache-off
// engine.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/e2e/e2e.hpp"
#include "src/bem/analysis.hpp"
#include "src/cad/cases.hpp"
#include "src/cad/grounding_system.hpp"
#include "src/campaign/damage_ensemble.hpp"
#include "src/campaign/runner.hpp"
#include "src/campaign/soil_ensemble.hpp"
#include "src/campaign/summary.hpp"
#include "src/common/hash.hpp"
#include "src/common/phase_report.hpp"
#include "src/engine/counters.hpp"
#include "src/engine/engine.hpp"
#include "src/engine/study.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/post/safety.hpp"

namespace e2e {

namespace {

using namespace ebem;

/// Derived child spans for a run's phase times, laid end to end from the
/// moment the run was submitted (the run starts immediately: paper_cold
/// keeps one run in flight) and clipped to the parent span.
void record_phases(Tracer& tracer, const PhaseReport& phases, Clock::time_point start,
                   Clock::time_point end, std::uint64_t unit, std::uint64_t parent) {
  if (!tracer.enabled()) return;
  Clock::time_point at = start;
  const std::pair<const char*, Phase> layers[] = {{"bem.assembly", Phase::kMatrixGeneration},
                                                  {"la.solve", Phase::kLinearSolve}};
  for (const auto& [name, phase] : layers) {
    const auto duration = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(phases.wall_seconds(phase)));
    const Clock::time_point stop = std::min(at + duration, end);
    tracer.record(name, at, stop, unit, parent);
    at = stop;
  }
}

void set_common(MetricSet& metrics, const std::vector<double>& unit_ms, double measured_wall,
                double cpu_seconds, double throughput) {
  metrics.set("throughput_per_s", throughput, "1/s", unit_ms.size());
  metrics.set_percentile("latency_p50_ms", unit_ms, 0.50, "ms");
  metrics.set_percentile("latency_p90_ms", unit_ms, 0.90, "ms");
  metrics.set_percentile("latency_p99_ms", unit_ms, 0.99, "ms");
  metrics.set("parallel.cpu_util",
              measured_wall > 0.0 ? cpu_seconds / (measured_wall * static_cast<double>(kThreads))
                                  : 0.0,
              "ratio");
}

// ------------------------------------------------------------ paper_cold ---

struct Substation {
  const char* name;
  std::vector<geom::Conductor> conductors;
  soil::LayeredSoil soil;
  double paper_req;  ///< this repository's R_eq, pinned to 4 digits [Ohm]
  double x0, x1, y0, y1;  ///< footprint plus the safety margin
};

constexpr double kPaperGpr = 10e3;
constexpr double kSafetyMargin = 5.0;  // m around the footprint
// A 24 x 24 patch made the post step 73% of a unit; at 10 x 10 assembly is
// about two thirds of it, which keeps integration the workload's subject.
constexpr std::size_t kPatchSamples = 10;

Substation make_substation(const char* name, std::vector<geom::Conductor> conductors,
                           soil::LayeredSoil soil, double paper_req) {
  double x0 = std::numeric_limits<double>::max();
  double y0 = x0;
  double x1 = -x0;
  double y1 = -x0;
  for (const geom::Conductor& c : conductors) {
    x0 = std::min({x0, c.a.x, c.b.x});
    x1 = std::max({x1, c.a.x, c.b.x});
    y0 = std::min({y0, c.a.y, c.b.y});
    y1 = std::max({y1, c.a.y, c.b.y});
  }
  return {name,          std::move(conductors), std::move(soil),      paper_req,
          x0 - kSafetyMargin, x1 + kSafetyMargin, y0 - kSafetyMargin, y1 + kSafetyMargin};
}

cad::DesignOptions paper_design() {
  cad::DesignOptions design;
  design.analysis.gpr = kPaperGpr;
  design.analysis.assembly.series.tolerance = 1e-6;
  return design;
}

struct PaperState {
  std::vector<Substation> substations;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<engine::Study> study;
};

/// What one substation analysis produced and cost.
struct SubstationRun {
  double req = 0.0;
  double current = 0.0;
  double sigma_norm = 0.0;
  double assembly_s = 0.0;
  double solve_s = 0.0;
  double residual_s = 0.0;
  double mesh_s = 0.0;
  double submit_s = 0.0;
  double safety_s = 0.0;
  double pairs = 0.0;
  double max_touch = 0.0;  ///< [V]
  double max_step = 0.0;   ///< [V]
};

/// The post step: touch and step voltages over the footprint patch.
post::SafetyAssessment assess(const cad::GroundingSystem& system, const Substation& substation,
                              std::size_t threads) {
  post::PotentialOptions potential;
  potential.num_threads = threads;
  potential.series = paper_design().analysis.assembly.series;
  const post::PotentialEvaluator evaluator = system.potential_evaluator(potential);
  post::SafetyCriteria criteria;
  criteria.soil_resistivity = substation.soil.resistivity(0);
  return post::assess_safety(evaluator, kPaperGpr, substation.x0, substation.x1, substation.y0,
                             substation.y1, kPatchSamples, kPatchSamples, criteria);
}

SubstationRun run_substation(PaperState& state, const Substation& substation, Tracer& tracer,
                             std::uint64_t unit, std::uint64_t parent) {
  SubstationRun run;

  Span mesh(tracer, "geom.mesh", unit, parent);
  cad::GroundingSystem system(substation.conductors, substation.soil, paper_design());
  run.mesh_s = mesh.end();

  Span submit(tracer, "engine.submit", unit, parent);
  engine::RunFuture future = system.submit(*state.study);
  run.submit_s = submit.end();

  Span wait(tracer, "engine.run", unit, parent);
  const cad::Report& report = system.adopt(future);
  const double run_wall = run.submit_s + wait.end();
  const PhaseReport& phases = future.report();
  record_phases(tracer, phases, wait.start(), wait.stop(), unit, wait.id());
  run.assembly_s = phases.wall_seconds(Phase::kMatrixGeneration);
  run.solve_s = phases.wall_seconds(Phase::kLinearSolve);
  run.residual_s = run_wall - phases.total_wall_seconds();
  run.pairs = element_pairs(static_cast<double>(report.element_count));
  run.req = report.equivalent_resistance;
  run.current = report.total_current;
  run.sigma_norm = sigma_l2(system.solution().sigma);

  Span safety(tracer, "post.safety", unit, parent);
  const post::SafetyAssessment assessment = assess(system, substation, kThreads);
  run.safety_s = safety.end();
  run.max_touch = assessment.max_touch_voltage;
  run.max_step = assessment.max_step_voltage;
  return run;
}

std::unique_ptr<PaperState> paper_setup() {
  auto state = std::make_unique<PaperState>();
  const cad::BarberaCase barbera = cad::barbera_case();
  const cad::BalaidosCase balaidos = cad::balaidos_case();
  state->substations.push_back(
      make_substation("Barbera two-layer", barbera.conductors, barbera.two_layer_soil, 0.3776));
  state->substations.push_back(
      make_substation("Balaidos C", balaidos.conductors, balaidos.soil_c, 0.4849));
  engine::ExecutionConfig config;
  config.num_threads = kThreads;
  config.use_congruence_cache = false;
  state->engine = std::make_unique<engine::Engine>(config);
  state->study = std::make_unique<engine::Study>(*state->engine, paper_design().analysis);
  Tracer untraced(false);
  for (const Substation& substation : state->substations) {
    (void)run_substation(*state, substation, untraced, 0, 0);  // warm-up unit
  }
  return state;
}

}  // namespace

Outcome run_paper_cold(const Options& options, Tracer& tracer) {
  Outcome outcome;
  MetricSet& metrics = outcome.metrics;
  std::unique_ptr<PaperState> state = timed_setup<PaperState>(paper_setup, metrics);
  const std::size_t count = state->substations.size();

  std::vector<double> unit_ms, assembly_ms, solve_ms, residual_ms, mesh_ms, safety_ms, submit_us;
  std::vector<std::vector<SubstationRun>> runs(count);
  double assembly_total = 0.0;
  double pairs_total = 0.0;

  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  Clock::time_point last_end = start;
  for (std::uint64_t unit = 1; seconds_between(start, Clock::now()) < options.seconds; ++unit) {
    Span span(tracer, "unit", unit);
    double assembly = 0.0, solve = 0.0, residual = 0.0, mesh = 0.0, safety = 0.0;
    for (std::size_t s = 0; s < count; ++s) {
      const SubstationRun run =
          run_substation(*state, state->substations[s], tracer, unit, span.id());
      assembly += run.assembly_s;
      solve += run.solve_s;
      residual += run.residual_s;
      mesh += run.mesh_s;
      safety += run.safety_s;
      submit_us.push_back(1e6 * run.submit_s);
      pairs_total += run.pairs;
      runs[s].push_back(run);
    }
    unit_ms.push_back(1e3 * span.end());
    last_end = Clock::now();
    assembly_total += assembly;
    assembly_ms.push_back(1e3 * assembly);
    solve_ms.push_back(1e3 * solve);
    residual_ms.push_back(1e3 * residual);
    mesh_ms.push_back(1e3 * mesh);
    safety_ms.push_back(1e3 * safety);
  }
  const double wall = seconds_between(start, last_end);
  const double cpu = process_cpu_seconds() - cpu_start;

  outcome.attempted = unit_ms.size();
  set_common(metrics, unit_ms, wall, cpu, static_cast<double>(unit_ms.size()) / wall);
  metrics.set("bem.assembly_ms", median(assembly_ms), "ms", assembly_ms.size());
  metrics.set("bem.ns_per_pair_thread",
              1e9 * assembly_total * static_cast<double>(kThreads) / pairs_total, "ns");
  metrics.set("la.solve_ms", median(solve_ms), "ms", solve_ms.size());
  metrics.set("engine.residual_ms", median(residual_ms), "ms", residual_ms.size());
  metrics.set("geom.mesh_ms", median(mesh_ms), "ms", mesh_ms.size());
  metrics.set("post.safety_ms", median(safety_ms), "ms", safety_ms.size());
  metrics.set("engine.submit_us", median(submit_us), "us", submit_us.size());
  metrics.set("engine.peak_outstanding",
              static_cast<double>(state->engine->scheduler_stats().peak_outstanding), "count");
  set_tracing_metrics(metrics, tracer, wall);
  metrics.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Verification: every measured unit's solution and safety voltages
  // against a fresh 1-thread, cache-off engine and a 1-thread post step
  // (<= 1e-12), and the reference against the pinned paper numbers.
  engine::ExecutionConfig reference_config;
  reference_config.num_threads = 1;
  reference_config.use_congruence_cache = false;
  engine::Engine reference_engine(reference_config);
  std::vector<bool> unit_ok(unit_ms.size(), true);
  for (std::size_t s = 0; s < count; ++s) {
    const Substation& substation = state->substations[s];
    cad::GroundingSystem system(substation.conductors, substation.soil, paper_design());
    const cad::Report& reference = system.analyze(reference_engine);
    const double reference_norm = sigma_l2(system.solution().sigma);
    const post::SafetyAssessment reference_safety = assess(system, substation, 1);
    if (std::abs(reference.equivalent_resistance - substation.paper_req) > 0.5e-4) {
      char message[160];
      std::snprintf(message, sizeof(message), "%s: R_eq %.6f Ohm does not round to %.4f",
                    substation.name, reference.equivalent_resistance, substation.paper_req);
      outcome.errors.emplace_back(message);
    }
    for (std::size_t u = 0; u < runs[s].size(); ++u) {
      const SubstationRun& run = runs[s][u];
      if (!(relative_deviation(run.req, reference.equivalent_resistance) <= 1e-12 &&
            relative_deviation(run.current, reference.total_current) <= 1e-12 &&
            relative_deviation(run.sigma_norm, reference_norm) <= 1e-12 &&
            relative_deviation(run.max_touch, reference_safety.max_touch_voltage) <= 1e-12 &&
            relative_deviation(run.max_step, reference_safety.max_step_voltage) <= 1e-12)) {
        if (unit_ok[u]) {
          outcome.errors.push_back(std::string(substation.name) + ": unit " +
                                   std::to_string(u + 1) +
                                   " deviates from the 1-thread cache-off reference");
        }
        unit_ok[u] = false;
      }
    }
  }
  outcome.failed = static_cast<std::size_t>(std::count(unit_ok.begin(), unit_ok.end(), false));
  return outcome;
}

// ------------------------------------------------------------- campaigns ---

namespace {

// 16 scenarios keep a campaign near 0.6 s on the host, so a 24 s window
// holds the 20+ units a median needs.
constexpr std::size_t kScenarios = 16;
constexpr std::size_t kCampaignCells = 10;
constexpr double kCellPitch = 5.0;  // m
constexpr double kFaultCurrent = 1000.0;  // A
constexpr std::size_t kWindow = 8;
constexpr std::size_t kPipelineWidth = 2;

enum class Sweep { kDamage, kSoil };

soil::LayeredSoil campaign_soil() { return soil::LayeredSoil::two_layer(0.005, 0.016, 1.0); }

std::vector<geom::Conductor> campaign_grid() {
  geom::RectGridSpec spec;
  spec.length_x = kCellPitch * static_cast<double>(kCampaignCells);
  spec.length_y = spec.length_x;
  spec.cells_x = kCampaignCells;
  spec.cells_y = kCampaignCells;
  return geom::make_rect_grid(spec);
}

campaign::CampaignOptions campaign_options(std::size_t window) {
  campaign::CampaignOptions options;
  options.window = window;
  options.fault_current = kFaultCurrent;
  campaign::SafetyPatch patch;
  patch.x1 = kCellPitch * static_cast<double>(kCampaignCells);
  patch.y1 = patch.x1;
  patch.criteria.surface_resistivity = 3000.0;
  options.safety = patch;
  return options;
}

/// The seed of campaign `unit` within a run seeded `seed` (unit 0 is the
/// warm-up campaign).
std::uint64_t campaign_seed(std::uint64_t seed, std::uint64_t unit) {
  return ebem::hash_combine(ebem::splitmix64(seed), unit);
}

std::unique_ptr<campaign::ScenarioSource> make_source(Sweep sweep, std::uint64_t seed) {
  if (sweep == Sweep::kDamage) {
    return std::make_unique<campaign::DamageSweep>(campaign::DamageEnsemble(
        campaign_grid(), campaign_soil(), campaign::DamageOptions{}, kScenarios, seed));
  }
  return std::make_unique<campaign::SoilSweep>(
      campaign_grid(), geom::MeshOptions{},
      campaign::SoilEnsemble(campaign::SoilDistribution::relative(campaign_soil(), 0.2, 0.2, 0.3),
                             kScenarios, seed));
}

/// What TimedSource observed of one campaign's meshing.
struct MeshTally {
  double seconds = 0.0;
  std::vector<std::size_t> elements;  ///< per scenario index
};

/// Forwards to a sweep and times every model() call — the meshing the
/// runner asks for at submit and again for the safety patch.
class TimedSource final : public campaign::ScenarioSource {
 public:
  TimedSource(const campaign::ScenarioSource& inner, Tracer& tracer, std::uint64_t unit,
              std::uint64_t parent, MeshTally& tally)
      : inner_(inner), tracer_(tracer), unit_(unit), parent_(parent), tally_(tally) {
    tally_.elements.assign(inner.size(), 0);
  }

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] bem::BemModel model(std::size_t index) const override {
    Span span(tracer_, "geom.mesh", unit_, parent_);
    bem::BemModel model = inner_.model(index);
    tally_.seconds += span.end();
    tally_.elements[index] = model.element_count();
    return model;
  }
  [[nodiscard]] double surface_soil_resistivity(std::size_t index) const override {
    return inner_.surface_soil_resistivity(index);
  }

 private:
  const campaign::ScenarioSource& inner_;
  Tracer& tracer_;
  std::uint64_t unit_;
  std::uint64_t parent_;
  MeshTally& tally_;
};

struct CampaignState {
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<engine::Study> study;
  std::unique_ptr<campaign::Runner> runner;
};

std::unique_ptr<CampaignState> make_campaign_state(std::size_t threads, bool cache,
                                                   std::size_t width, std::size_t window) {
  auto state = std::make_unique<CampaignState>();
  engine::ExecutionConfig config;
  config.num_threads = threads;
  config.use_congruence_cache = cache;
  config.pipeline_width = width;
  config.max_pending_runs = window;
  state->engine = std::make_unique<engine::Engine>(config);
  state->study = std::make_unique<engine::Study>(*state->engine);
  state->runner = std::make_unique<campaign::Runner>(*state->study, campaign_options(window));
  return state;
}

struct Percentiles {
  std::vector<double> values;  ///< resistance, gpr, touch, step at kSummaryProbabilities
  std::size_t touch_violations = 0;
  std::size_t step_violations = 0;
};

Percentiles percentiles(const campaign::CampaignResult& result) {
  Percentiles out;
  for (const campaign::MetricSummary* summary :
       {&result.resistance, &result.gpr, &result.touch_margin, &result.step_margin}) {
    for (const double p : campaign::kSummaryProbabilities) {
      out.values.push_back(summary->quantile(p));
    }
  }
  out.touch_violations = result.touch_violations;
  out.step_violations = result.step_violations;
  return out;
}

/// Whether two percentile reports agree to `tolerance`, relative to each
/// value or, for the margins (differences of voltages), to the GPR scale.
bool percentiles_agree(const Percentiles& a, const Percentiles& b, double tolerance) {
  if (a.touch_violations != b.touch_violations || a.step_violations != b.step_violations) {
    return false;
  }
  const std::size_t per_metric = campaign::kSummaryProbabilities.size();
  const double gpr_scale = std::abs(b.values[2 * per_metric - 1]);
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const double scale = i < 2 * per_metric ? std::abs(b.values[i])
                                            : std::max(std::abs(b.values[i]), gpr_scale);
    if (!(std::abs(a.values[i] - b.values[i]) <= tolerance * scale)) return false;
  }
  return true;
}

Outcome run_campaign(const Options& options, Tracer& tracer, Sweep sweep) {
  Outcome outcome;
  MetricSet& metrics = outcome.metrics;
  std::unique_ptr<CampaignState> state = timed_setup<CampaignState>(
      [&] {
        auto built = make_campaign_state(kThreads, true, kPipelineWidth, kWindow);
        (void)built->runner->run(*make_source(sweep, campaign_seed(options.seed, 0)));
        return built;
      },
      metrics);

  std::vector<double> unit_ms, assembly_ms, solve_ms, mesh_ms;
  double assembly_total = 0.0, pairs_total = 0.0, phase_wall_total = 0.0, covered_total = 0.0;
  double drops = 0.0, gate_wait_s = 0.0;
  std::size_t hits = 0, misses = 0, scenarios = 0, peak_in_flight = 0;
  std::optional<Percentiles> first;
  std::uint64_t first_seed = 0;

  const double cpu_start = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  Clock::time_point last_end = start;
  for (std::uint64_t unit = 1; seconds_between(start, Clock::now()) < options.seconds; ++unit) {
    const std::uint64_t seed = campaign_seed(options.seed, unit);
    const std::unique_ptr<campaign::ScenarioSource> source = make_source(sweep, seed);
    MeshTally mesh;
    Span span(tracer, "unit", unit);
    const TimedSource timed(*source, tracer, unit, span.id(), mesh);
    const campaign::CampaignResult result = state->runner->run(timed);
    const double unit_s = span.end();
    last_end = Clock::now();

    unit_ms.push_back(1e3 * unit_s);
    const double assembly = result.phases.wall_seconds(Phase::kMatrixGeneration);
    assembly_ms.push_back(1e3 * assembly);
    solve_ms.push_back(1e3 * result.phases.wall_seconds(Phase::kLinearSolve));
    mesh_ms.push_back(1e3 * mesh.seconds);
    assembly_total += assembly;
    for (const std::size_t elements : mesh.elements) {
      pairs_total += element_pairs(static_cast<double>(elements));
    }
    phase_wall_total += result.phases.total_wall_seconds();
    covered_total += std::min(unit_s, mesh.seconds + result.phases.total_wall_seconds());
    drops += result.phases.counter(engine::kCacheDropsCounter);
    gate_wait_s += result.phases.counter(engine::kGateWaitSecondsCounter);
    hits += result.cache.hits;
    misses += result.cache.misses;
    scenarios += result.completed;
    peak_in_flight = std::max(peak_in_flight, result.peak_in_flight);
    if (!first) {
      first = percentiles(result);
      first_seed = seed;
    }
  }
  const double wall = seconds_between(start, last_end);
  const double cpu = process_cpu_seconds() - cpu_start;
  const double unit_total_s = [&] {
    double sum = 0.0;
    for (const double ms : unit_ms) sum += ms / 1e3;
    return sum;
  }();

  outcome.attempted = unit_ms.size();
  set_common(metrics, unit_ms, wall, cpu, static_cast<double>(scenarios) / wall);
  metrics.set("bem.assembly_ms", median(assembly_ms), "ms", assembly_ms.size());
  metrics.set("bem.ns_per_pair_thread",
              1e9 * assembly_total * static_cast<double>(kThreads) / pairs_total, "ns");
  metrics.set("bem.cache_hit_rate",
              hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                                : 0.0,
              "ratio", hits + misses);
  metrics.set("bem.cache_misses_per_unit",
              static_cast<double>(misses) / static_cast<double>(unit_ms.size()), "count");
  metrics.set("engine.cache_drops_per_scenario", drops / static_cast<double>(scenarios), "count",
              scenarios);
  metrics.set("engine.gate_wait_ms_per_scenario", 1e3 * gate_wait_s / static_cast<double>(scenarios),
              "ms", scenarios);
  metrics.set("la.solve_ms", median(solve_ms), "ms", solve_ms.size());
  metrics.set("geom.mesh_ms", median(mesh_ms), "ms", mesh_ms.size());
  metrics.set("campaign.pipeline_overlap", phase_wall_total / unit_total_s, "ratio");
  metrics.set("campaign.peak_in_flight", static_cast<double>(peak_in_flight), "count");
  metrics.set("engine.peak_outstanding",
              static_cast<double>(state->engine->scheduler_stats().peak_outstanding), "count");
  set_tracing_metrics(metrics, tracer, wall);
  if (tracer.enabled()) {
    // The runner's internals are opaque from outside: a unit is covered by
    // its meshing spans plus its runs' phase times (an upper bound on the
    // coverage when runs overlap), so this share is a lower bound.
    metrics.set("unattributed_share", std::max(0.0, 1.0 - covered_total / unit_total_s), "ratio",
                unit_ms.size());
  }
  metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  state.reset();

  // Verification of the first measured campaign: a fresh 1-thread,
  // cache-off engine at window 1 reproduces its percentiles to 1e-12, and
  // the same reference at the measured window and width reproduces itself
  // bitwise (the runner's width-determinism contract).
  // The two 1-thread references run side by side.
  const std::unique_ptr<campaign::ScenarioSource> source = make_source(sweep, first_seed);
  std::future<Percentiles> windowed_run = std::async(std::launch::async, [&] {
    return percentiles(
        make_campaign_state(1, false, kPipelineWidth, kWindow)->runner->run(*source));
  });
  const Percentiles serial =
      percentiles(make_campaign_state(1, false, 1, 1)->runner->run(*source));
  const Percentiles windowed = windowed_run.get();
  if (!first || !percentiles_agree(*first, serial, 1e-12)) {
    outcome.errors.emplace_back(
        "first campaign's percentiles deviate from the 1-thread cache-off reference");
    ++outcome.failed;
  }
  if (!percentiles_agree(windowed, serial, 0.0)) {
    outcome.errors.emplace_back("window=1 rerun is not bitwise identical to the window=8 run");
    ++outcome.failed;
  }
  return outcome;
}

}  // namespace

Outcome run_damage_warm(const Options& options, Tracer& tracer) {
  return run_campaign(options, tracer, Sweep::kDamage);
}

Outcome run_soil_cold(const Options& options, Tracer& tracer) {
  return run_campaign(options, tracer, Sweep::kSoil);
}

}  // namespace e2e
