#include "src/campaign/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "src/bem/congruence_cache.hpp"
#include "src/bem/element.hpp"
#include "src/common/error.hpp"
#include "src/common/timer.hpp"
#include "src/post/surface_potential.hpp"

namespace ebem::campaign {

SoilSweep::SoilSweep(std::vector<geom::Conductor> conductors, geom::MeshOptions mesh,
                     SoilEnsemble ensemble)
    : conductors_(std::move(conductors)), mesh_(mesh), ensemble_(std::move(ensemble)) {
  EBEM_EXPECT(!conductors_.empty(), "SoilSweep needs a non-empty conductor design");
}

bem::BemModel SoilSweep::model(std::size_t index) const {
  const soil::LayeredSoil soil = ensemble_.scenario(index);
  const geom::Mesh mesh = geom::Mesh::build(bem::split_at_interfaces(conductors_, soil), mesh_);
  return bem::BemModel(mesh, soil);
}

double SoilSweep::surface_soil_resistivity(std::size_t index) const {
  return ensemble_.scenario(index).resistivity(0);
}

void CampaignOptions::validate() const {
  EBEM_EXPECT(window >= 1, "campaign window must be at least 1");
  EBEM_EXPECT(fault_current >= 0.0, "fault_current must be >= 0 (0 = fixed study GPR)");
  EBEM_EXPECT(early_stop.quantile > 0.0 && early_stop.quantile < 1.0,
              "early_stop.quantile must be in (0, 1)");
  EBEM_EXPECT(early_stop.relative_half_width >= 0.0,
              "early_stop.relative_half_width must be >= 0 (0 = disabled)");
  EBEM_EXPECT(early_stop.z > 0.0, "early_stop.z must be positive");
  if (early_stop.relative_half_width > 0.0) {
    EBEM_EXPECT(early_stop.min_scenarios >= 2, "early stop needs min_scenarios >= 2");
    EBEM_EXPECT(quantiles == QuantileMode::kExact,
                "early stopping needs exact quantiles (the confidence bracket is an "
                "order-statistic interval)");
  }
  if (safety.has_value()) {
    EBEM_EXPECT(safety->x1 > safety->x0 && safety->y1 > safety->y0,
                "safety patch must have positive area");
    EBEM_EXPECT(safety->nx >= 1 && safety->ny >= 1, "safety patch needs sample points");
  }
}

Runner::Runner(engine::Study& study, CampaignOptions options)
    : study_(&study), options_(std::move(options)) {
  options_.validate();
}

namespace {

/// Everything harvested from one completed run, copied out so the future
/// (and the run's resources — assembled matrix, factor) can be released in
/// completion order even though commits happen in index order.
struct Harvest {
  bem::AnalysisResult result;
  PhaseReport report;
  bem::CongruenceCacheStats cache_delta;
  std::optional<bem::BemModel> model;  ///< kept for the safety patch
};

struct Pending {
  std::size_t index = 0;
  engine::RunFuture future;
  /// A copy of the submitted model when a safety patch will evaluate it
  /// (the run consumes its own copy; the evaluator borrows this one).
  std::optional<bem::BemModel> model;
};

}  // namespace

CampaignResult Runner::run(const ScenarioSource& source) {
  const std::size_t total = source.size();
  EBEM_EXPECT(total > 0, "campaign source is empty");
  const auto start = std::chrono::steady_clock::now();

  CampaignResult out;
  out.scenarios = total;
  out.resistance = MetricSummary(options_.quantiles);
  out.gpr = MetricSummary(options_.quantiles);
  out.touch_margin = MetricSummary(options_.quantiles);
  out.step_margin = MetricSummary(options_.quantiles);

  std::deque<Pending> window;
  std::map<std::size_t, Harvest> harvested;
  std::size_t next_submit = 0;
  std::size_t next_commit = 0;

  // The safety step evaluates under the study's own physics — the basis,
  // integrator, image series and Hankel controls the scenarios were solved
  // with — on the engine's pool, between the pipelined runs' regions.
  const bem::AssemblyOptions& assembly = study_->options().assembly;
  post::PotentialOptions potential;
  potential.integrator = assembly.integrator;
  potential.series = assembly.series;
  potential.hankel = assembly.hankel;
  // Under the engine's cache switch, patch influences replay from a capped cache
  // of the current scenario's physics (on irregular grids most pairs are classes).
  const bool replay_influences = study_->engine().config().use_congruence_cache;
  std::unique_ptr<bem::CongruenceCache> influence_cache;

  const auto harvest_ready = [&](bool block_on_front) {
    if (block_on_front && !window.empty()) window.front().future.wait();
    for (auto it = window.begin(); it != window.end();) {
      if (!it->future.ready()) {
        ++it;
        continue;
      }
      Harvest h;
      h.report = it->future.report();
      h.cache_delta = it->future.cache_delta();
      h.result = it->future.take();  // rethrows a failed scenario
      h.model = std::move(it->model);
      harvested.emplace(it->index, std::move(h));
      it = window.erase(it);
    }
  };

  const auto commit_one = [&](std::size_t index, Harvest& h) {
    const double req = h.result.equivalent_resistance;
    const double scenario_gpr =
        options_.fault_current > 0.0 ? options_.fault_current * req : study_->options().gpr;
    out.resistance.add(req);
    out.gpr.add(scenario_gpr);

    if (options_.safety.has_value()) {
      const WallTimer wall;
      const CpuTimer cpu;
      const SafetyPatch& patch = *options_.safety;
      std::vector<double> sigma = h.result.sigma;
      if (options_.fault_current > 0.0) {
        // sigma came out scaled to the study's fixed GPR; rescale to this
        // scenario's rise (everything is proportional to the GPR).
        const double factor = scenario_gpr / study_->options().gpr;
        for (double& s : sigma) s *= factor;
      }
      if (replay_influences &&
          (influence_cache == nullptr || !influence_cache->serves(h.model->soil(), assembly))) {
        influence_cache = std::make_unique<bem::CongruenceCache>(
            h.model->soil(), assembly, bem::kDefaultCongruenceQuantum, std::size_t{1} << 16);
      }
      const post::PotentialEvaluator evaluator(*h.model, std::move(sigma), potential,
                                               study_->engine().pool(), influence_cache.get());
      post::SafetyCriteria criteria = patch.criteria;
      criteria.soil_resistivity = source.surface_soil_resistivity(index);
      const post::SafetyAssessment assessment =
          post::assess_safety(evaluator, scenario_gpr, patch.x0, patch.x1, patch.y0, patch.y1,
                              patch.nx, patch.ny, criteria);
      out.touch_margin.add(assessment.tolerable_touch - assessment.max_touch_voltage);
      out.step_margin.add(assessment.tolerable_step - assessment.max_step_voltage);
      if (!assessment.touch_safe()) ++out.touch_violations;
      if (!assessment.step_safe()) ++out.step_violations;
      const double safety_seconds = wall.seconds();
      out.phases.add(Phase::kResultsStorage, safety_seconds, cpu.seconds());
      out.phases.add_counter(kSafetySecondsCounter, safety_seconds);
    }

    out.cache.hits += h.cache_delta.hits;
    out.cache.misses += h.cache_delta.misses;
    out.phases.merge(h.report);
    ++out.completed;
  };

  const auto should_stop = [&]() {
    const CampaignEarlyStop& stop = options_.early_stop;
    if (stop.relative_half_width <= 0.0) return false;
    if (out.completed < stop.min_scenarios) return false;
    // Watch equivalent resistance: it varies in every campaign mode (the
    // GPR is constant when fault_current == 0, and proportional to R_eq
    // otherwise, so its relative tightness is identical).
    const std::optional<double> half_width =
        out.resistance.confidence_half_width(stop.quantile, stop.z);
    if (!half_width.has_value()) return false;
    const double scale = std::abs(out.resistance.quantile(stop.quantile));
    return *half_width <= stop.relative_half_width * std::max(scale, 1e-300);
  };

  while (next_commit < total) {
    // Fill the window up to the backpressure bound.
    while (next_submit < total && window.size() < options_.window) {
      bem::BemModel model = source.model(next_submit);
      std::optional<bem::BemModel> kept;
      if (options_.safety.has_value()) kept = model;
      window.push_back({next_submit, study_->submit(std::move(model)), std::move(kept)});
      ++next_submit;
      out.peak_in_flight = std::max(out.peak_in_flight, window.size());
    }

    // Harvest in completion order; block on the oldest run only when the
    // next scenario to commit has not completed yet.
    harvest_ready(/*block_on_front=*/!harvested.contains(next_commit));

    // Commit strictly in scenario-index order — the determinism contract:
    // the streaming summaries see observations in the same order no matter
    // how completions interleaved.
    while (true) {
      const auto it = harvested.find(next_commit);
      if (it == harvested.end()) break;
      commit_one(it->first, it->second);
      harvested.erase(it);
      ++next_commit;
      if (should_stop()) {
        out.stopped_early = true;
        // Discard the tail: cancel what never started, wait out the rest
        // (their reports merge into the engine's session sink as usual but
        // not into this campaign's statistics).
        for (Pending& pending : window) (void)pending.future.cancel();
        for (Pending& pending : window) pending.future.wait();
        out.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                               .count();
        return out;
      }
    }
  }

  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

}  // namespace ebem::campaign
