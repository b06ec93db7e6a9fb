#include "src/cad/design_search.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/geom/grid_builder.hpp"

namespace ebem::cad {

std::string DesignCandidate::label() const {
  return std::to_string(cells_x) + "x" + std::to_string(cells_y) + " mesh + " +
         std::to_string(rods) + " rods";
}

namespace {

/// One ladder rung in flight: the meshed system, its submitted analysis and
/// the geometry/identity needed to finish the candidate when its future is
/// consumed.
struct PendingCandidate {
  DesignCandidate candidate;
  std::vector<geom::Conductor> conductors;
  GroundingSystem system;
  engine::RunFuture future;
};

}  // namespace

DesignSearchResult search_design(const soil::LayeredSoil& soil, const DesignGoal& goal,
                                 const DesignSearchOptions& options) {
  EBEM_EXPECT(options.site_x > 0.0 && options.site_y > 0.0, "site extents must be positive");
  EBEM_EXPECT(goal.gpr > 0.0, "GPR must be positive");
  EBEM_EXPECT(options.max_steps >= 1, "need at least one ladder step");

  const double aspect = options.site_y / options.site_x;
  DesignSearchResult result;

  // One execution context for the whole ladder: the candidates share the
  // soil and numerics, so every elemental block integrated for candidate k
  // is a legitimate warm-cache entry for candidates k+1.. — the "many
  // nearby analyses" loop the Engine exists for.
  std::optional<engine::Engine> owned_engine;
  engine::Engine* eng = options.engine;
  if (eng == nullptr) {
    engine::ExecutionConfig config;
    config.use_congruence_cache = options.warm_cache;
    owned_engine.emplace(config);
    eng = &*owned_engine;
  }
  bem::AnalysisOptions analysis;
  analysis.gpr = goal.gpr;
  analysis.assembly.series.tolerance = 1e-6;
  engine::Study study(*eng, analysis);

  // Submit the whole ladder as a pipelined batch: meshing is cheap next to
  // analysis, so every candidate is built and handed to the engine's
  // scheduler up front — assembly of candidate k+1 overlaps the
  // factorization/solve of candidate k on the shared pool. Results are
  // consumed strictly in ladder order below; the tail beyond the first
  // satisfying candidate is cancelled (runs that never started simply never
  // run).
  std::vector<PendingCandidate> ladder;
  ladder.reserve(options.max_steps);
  // Whatever ends the walk early — a meshing/submission failure, the first
  // satisfying candidate, or a failed run unwinding out of adopt() — must
  // cancel every submitted-but-unconsumed rung on the way out, or the
  // engine (a locally owned one via its destructor drain) would grind
  // through the remaining candidates first.
  struct TailCanceller {
    std::vector<PendingCandidate>& ladder;
    std::size_t consumed = 0;
    ~TailCanceller() {
      // Best effort: rungs that have not started never will; rungs already
      // in flight finish in the background (their results are simply never
      // consumed) before the engine or ladder goes away.
      for (std::size_t tail = consumed; tail < ladder.size(); ++tail) {
        (void)ladder[tail].future.cancel();
      }
    }
  } unconsumed{ladder};
  for (std::size_t step = 0; step < options.max_steps; ++step) {
    // Ladder: mesh density grows with every step; from the third step on,
    // perimeter rods are added in growing counts. Rods come later because
    // meshing is usually the cheaper Req lever in uniform soil, while rods
    // pay off once a conductive lower layer is reachable.
    const std::size_t cells_x = 2 + step;
    const std::size_t cells_y =
        std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(
                                     static_cast<double>(cells_x) * aspect)));
    const std::size_t rods = step < 2 ? 0 : 4 * (step - 1);

    geom::RectGridSpec spec;
    spec.length_x = options.site_x;
    spec.length_y = options.site_y;
    spec.cells_x = cells_x;
    spec.cells_y = cells_y;
    spec.depth = options.depth;
    spec.radius = options.conductor_radius;
    std::vector<geom::Conductor> conductors = geom::make_rect_grid(spec);
    if (rods > 0) {
      geom::add_rods(conductors, geom::perimeter_rod_positions(spec, rods), options.depth,
                     options.rod);
    }

    DesignOptions design_options;
    design_options.analysis = analysis;
    PendingCandidate pending{
        .candidate = {},
        .conductors = conductors,
        .system = GroundingSystem(std::move(conductors), soil, design_options),
        .future = {},
    };
    pending.candidate.cells_x = cells_x;
    pending.candidate.cells_y = cells_y;
    pending.candidate.rods = rods;
    pending.future = pending.system.submit(study);
    ladder.push_back(std::move(pending));
  }

  // Consume in ladder order; per-candidate cache deltas come from each run's
  // own tally, so they stay exact even though the runs overlapped.
  std::size_t chosen_index = ladder.size() - 1;
  for (std::size_t step = 0; step < ladder.size(); ++step) {
    PendingCandidate& pending = ladder[step];
    unconsumed.consumed = step + 1;
    const Report& report = pending.system.adopt(pending.future);

    DesignCandidate& candidate = pending.candidate;
    candidate.resistance = report.equivalent_resistance;
    candidate.cache = report.cache_stats;

    const auto evaluator = pending.system.potential_evaluator({}, eng->pool());
    // Touch exposure exists only where grounded structures stand — inside
    // the site footprint; step exposure extends to the surroundings, so the
    // step patch carries the margin.
    const post::SafetyAssessment touch_assessment =
        post::assess_safety(evaluator, goal.gpr, 0.0, options.site_x, 0.0, options.site_y,
                            options.samples_x, options.samples_y, goal.criteria);
    const post::SafetyAssessment step_assessment = post::assess_safety(
        evaluator, goal.gpr, -options.safety_margin, options.site_x + options.safety_margin,
        -options.safety_margin, options.site_y + options.safety_margin, options.samples_x,
        options.samples_y, goal.criteria);
    candidate.max_touch = touch_assessment.max_touch_voltage;
    candidate.max_step = step_assessment.max_step_voltage;

    candidate.satisfied = candidate.resistance <= goal.max_resistance &&
                          (!goal.require_touch_safe || touch_assessment.touch_safe()) &&
                          (!goal.require_step_safe || step_assessment.step_safe());
    result.history.push_back(candidate);
    result.chosen = candidate;
    chosen_index = step;
    // Ladder totals are the consumed candidates' own deltas summed — the
    // only aggregation that stays exact when runs overlap (a global
    // before/after snapshot would also count still-in-flight tail runs).
    result.cache_stats.hits += candidate.cache.hits;
    result.cache_stats.misses += candidate.cache.misses;
    if (candidate.satisfied) {
      result.satisfied = true;
      break;
    }
  }
  result.conductors = std::move(ladder[chosen_index].conductors);
  result.cache_stats.entries = eng->cache_stats().entries;
  return result;
}

}  // namespace ebem::cad
