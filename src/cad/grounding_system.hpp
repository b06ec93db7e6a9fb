// High-level CAD entry point, mirroring the paper's TOTBEM-style system:
// a grounding design (conductors) + a soil model + analysis options in,
// a full engineering report out, with the per-phase timings of Table 6.1.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/common/phase_report.hpp"
#include "src/engine/study.hpp"
#include "src/geom/conductor.hpp"
#include "src/geom/mesh.hpp"
#include "src/io/grid_file.hpp"
#include "src/post/surface_potential.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::cad {

/// Physics of one design run: meshing + analysis options. Execution (threads,
/// caches, solver policy) belongs to the engine::Engine a run is handed to.
struct DesignOptions {
  geom::MeshOptions mesh;
  bem::AnalysisOptions analysis;
};

/// Everything a design review needs from one run.
struct Report {
  double gpr = 0.0;
  double equivalent_resistance = 0.0;  ///< [Ohm]
  double total_current = 0.0;          ///< [A]
  std::size_t element_count = 0;
  std::size_t dof_count = 0;
  PhaseReport phases;
  std::vector<double> column_costs;    ///< per-column matrix-generation cost, if measured
  /// Congruence-cache counters of this run alone (zeros when the run had no
  /// warm engine cache).
  bem::CongruenceCacheStats cache_stats;

  [[nodiscard]] std::string summary() const;
};

/// A grounding system under analysis. Owns the split/meshed model so that
/// post-processing (surface potentials, safety) can reuse the solution.
class GroundingSystem {
 public:
  /// Build from raw conductors; conductors are split at soil interfaces and
  /// meshed during construction (the "Data Preprocessing" phase).
  GroundingSystem(std::vector<geom::Conductor> conductors, soil::LayeredSoil soil,
                  const DesignOptions& options = {});

  /// Load design + soil from a grid description file ("Data Input" phase).
  [[nodiscard]] static GroundingSystem from_file(const std::string& path,
                                                 const DesignOptions& options = {});

  /// Run (or re-run) the analysis on a local serial, cache-off engine (cold,
  /// no shared resources). Sessions evaluating several systems should pass
  /// an Engine, or submit() to a Study, instead.
  const Report& analyze();

  /// Run against an engine's shared pool, warm cache and solver policy;
  /// phase timings/counters also accumulate into the engine's report.
  const Report& analyze(engine::Engine& engine);

  /// Submit this system's model to the study's scheduler and return the
  /// future immediately. The study's physics options must equal this
  /// system's analysis options (throws ebem::InvalidArgument otherwise) —
  /// one physics per session is what keeps the post-processing consistent.
  /// Several systems submitted back to back pipeline their
  /// assemble/factor/solve stages on the engine's shared pool; hand the
  /// future back to adopt() to install the result — cad::search_design
  /// drives its whole candidate ladder this way.
  [[nodiscard]] engine::RunFuture submit(engine::Study& study);

  /// Install a submitted run's result as this system's solution (waits on
  /// the future; rethrows the run's failure). The returned report carries
  /// the run's phase timings and its exact per-run cache delta.
  const Report& adopt(engine::RunFuture& future);

  /// Post-processing evaluator over the last analyze() solution, under the
  /// physics the system was solved with: the integrator, image-series and
  /// Hankel controls come from options().analysis.assembly, so only
  /// options.num_threads is read from `options`. A non-null `pool`
  /// (typically the engine's) is borrowed and must outlive the evaluator;
  /// otherwise it owns options.num_threads threads.
  [[nodiscard]] post::PotentialEvaluator potential_evaluator(
      const post::PotentialOptions& options = {}, par::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const bem::BemModel& model() const { return model_; }
  [[nodiscard]] const Report& report() const;
  [[nodiscard]] const bem::AnalysisResult& solution() const;
  [[nodiscard]] const DesignOptions& options() const { return options_; }

 private:
  GroundingSystem(std::vector<geom::Conductor> conductors, soil::LayeredSoil soil,
                  const DesignOptions& options, PhaseReport input_phases);

  const Report& finish_report(const PhaseReport& phases,
                              const bem::CongruenceCacheStats& cache_stats);

  static bem::BemModel preprocess(std::vector<geom::Conductor> conductors,
                                  const soil::LayeredSoil& soil, const DesignOptions& options,
                                  PhaseReport& phases);

  DesignOptions options_;
  PhaseReport setup_phases_;
  bem::BemModel model_;
  std::optional<bem::AnalysisResult> solution_;
  std::optional<Report> report_;
};

}  // namespace ebem::cad
