#include "src/cad/grounding_system.hpp"

#include <sstream>

#include "src/bem/element.hpp"
#include "src/common/error.hpp"
#include "src/common/timer.hpp"

namespace ebem::cad {

std::string Report::summary() const {
  std::ostringstream os;
  os << "GPR                    " << gpr << " V\n"
     << "Equivalent resistance  " << equivalent_resistance << " Ohm\n"
     << "Total ground current   " << total_current / 1000.0 << " kA\n"
     << "Elements / DoF         " << element_count << " / " << dof_count << "\n"
     << phases.to_string();
  return os.str();
}

bem::BemModel GroundingSystem::preprocess(std::vector<geom::Conductor> conductors,
                                          const soil::LayeredSoil& soil,
                                          const DesignOptions& options, PhaseReport& phases) {
  WallTimer wall;
  CpuTimer cpu;
  const std::vector<geom::Conductor> split = bem::split_at_interfaces(conductors, soil);
  const geom::Mesh mesh = geom::Mesh::build(split, options.mesh);
  bem::BemModel model(mesh, soil);
  phases.add(Phase::kPreprocessing, wall.seconds(), cpu.seconds());
  return model;
}

GroundingSystem::GroundingSystem(std::vector<geom::Conductor> conductors, soil::LayeredSoil soil,
                                 const DesignOptions& options)
    : GroundingSystem(std::move(conductors), std::move(soil), options, PhaseReport{}) {}

GroundingSystem::GroundingSystem(std::vector<geom::Conductor> conductors, soil::LayeredSoil soil,
                                 const DesignOptions& options, PhaseReport input_phases)
    : options_(options),
      setup_phases_(input_phases),
      model_(preprocess(std::move(conductors), soil, options, setup_phases_)) {}

GroundingSystem GroundingSystem::from_file(const std::string& path,
                                           const DesignOptions& options) {
  WallTimer wall;
  CpuTimer cpu;
  io::GridDescription description = io::read_grid_file(path);
  PhaseReport phases;
  phases.add(Phase::kDataInput, wall.seconds(), cpu.seconds());
  return GroundingSystem(std::move(description.conductors), description.soil(), options,
                         phases);
}

const Report& GroundingSystem::analyze() {
  engine::ExecutionConfig serial;
  serial.use_congruence_cache = false;
  engine::Engine engine(serial);
  return analyze(engine);
}

const Report& GroundingSystem::analyze(engine::Engine& engine) {
  PhaseReport phases = setup_phases_;
  solution_ = engine.analyze(model_, options_.analysis, &phases);
  // The run tallied its own cache lookups — exact even when other runs
  // shared the engine's cache concurrently.
  return finish_report(phases, solution_->cache_stats);
}

engine::RunFuture GroundingSystem::submit(engine::Study& study) {
  // A Study pins one physics for its whole session, and this system's
  // post-processing (potential evaluator physics, GPR scaling) runs off its
  // construction-time options — so the two must agree. Silently letting
  // either side win would e.g. rescale every safety voltage to the other
  // GPR without any error.
  EBEM_EXPECT(study.options() == options_.analysis,
              "GroundingSystem::submit(Study&): the study's analysis options differ from "
              "this system's; construct both from the same AnalysisOptions");
  return study.submit(model_);
}

const Report& GroundingSystem::adopt(engine::RunFuture& future) {
  EBEM_EXPECT(future.valid(), "GroundingSystem::adopt: empty future");
  bem::AnalysisResult result = future.take();
  // Cheap belonging check: a future produced for a different system would
  // pair the wrong sigma with this mesh and silently corrupt every surface
  // potential downstream.
  EBEM_EXPECT(result.sigma.size() ==
                  model_.dof_count(options_.analysis.assembly.integrator.basis),
              "GroundingSystem::adopt: the future's solution does not match this system's "
              "model; adopt only futures from this system's submit()");
  solution_ = std::move(result);
  PhaseReport phases = setup_phases_;
  phases.merge(future.report());
  return finish_report(phases, solution_->cache_stats);
}

const Report& GroundingSystem::finish_report(const PhaseReport& phases,
                                             const bem::CongruenceCacheStats& cache_stats) {
  Report report;
  report.gpr = options_.analysis.gpr;
  report.equivalent_resistance = solution_->equivalent_resistance;
  report.total_current = solution_->total_current;
  report.element_count = model_.element_count();
  report.dof_count = model_.dof_count(options_.analysis.assembly.integrator.basis);
  report.phases = phases;
  report.column_costs = solution_->column_costs;
  report.cache_stats = cache_stats;
  report_ = std::move(report);
  return *report_;
}

post::PotentialEvaluator GroundingSystem::potential_evaluator(
    const post::PotentialOptions& options, par::ThreadPool* pool) const {
  EBEM_EXPECT(solution_.has_value(), "call analyze() before requesting post-processing");
  const bem::AssemblyOptions& assembly = options_.analysis.assembly;
  post::PotentialOptions merged = options;
  merged.integrator = assembly.integrator;
  merged.series = assembly.series;
  merged.hankel = assembly.hankel;
  // Normalized solution: sigma at GPR / gpr gives the unit-GPR distribution;
  // the evaluator works with the actual-GPR sigma directly.
  return post::PotentialEvaluator(model_, solution_->sigma, merged, pool);
}

const Report& GroundingSystem::report() const {
  EBEM_EXPECT(report_.has_value(), "call analyze() first");
  return *report_;
}

const bem::AnalysisResult& GroundingSystem::solution() const {
  EBEM_EXPECT(solution_.has_value(), "call analyze() first");
  return *solution_;
}

}  // namespace ebem::cad
