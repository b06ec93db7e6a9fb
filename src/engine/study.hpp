// engine::Study — one physics, many models, shared warm state.
//
// A Study binds an Engine to a fixed set of analysis options (soil series
// tolerances, basis, GPR) and runs model after model against it. That is
// the shape of every CAD loop in the paper: the design ladder re-meshes the
// same site, soil estimation re-analyzes the same grid under fitted soils,
// safety sweeps re-solve the chosen design. Because the physics is pinned,
// every run legitimately shares the Engine's warm congruence cache; each
// run's result (AnalysisResult::cache_stats, RunFuture::cache_delta())
// carries its exact cache delta — the number candidate k actually gained
// from candidates 1..k-1.
//
// Independent models should be submit()ted rather than analyzed one by one:
// the engine's scheduler pipelines their assemble/factor/solve stages on
// the shared pool, and each RunFuture carries its own result, PhaseReport
// and exact cache delta (cad::search_design submits its whole ladder this
// way and consumes the futures in order).
#pragma once

#include <atomic>
#include <cstddef>

#include "src/bem/analysis.hpp"
#include "src/engine/engine.hpp"
#include "src/engine/factored_system.hpp"
#include "src/engine/scheduler.hpp"

namespace ebem::engine {

class Study {
 public:
  /// The engine is borrowed and must outlive the study.
  explicit Study(Engine& engine, bem::AnalysisOptions options = {});

  /// Submit one model for analysis under the study's physics; returns
  /// immediately. Concurrent submits pipeline on the engine's scheduler and
  /// share the warm cache; the future's cache_delta() is this run's exact
  /// hit/miss tally. `on_complete` is invoked once when the run ends
  /// (Scheduler::submit has the contract).
  [[nodiscard]] RunFuture submit(bem::BemModel model, RunCallback on_complete = {});

  /// Analyze one model under the study's physics, against the engine's warm
  /// resources — the blocking submit+get shim. Safe to call with
  /// differently meshed / sized models. `run_report` receives this run's
  /// phase timings and counters on top of the engine's cumulative report.
  [[nodiscard]] bem::AnalysisResult analyze(const bem::BemModel& model,
                                            PhaseReport* run_report = nullptr);

  /// Assemble + factor one model once for many right-hand sides.
  [[nodiscard]] FactoredSystem factor(const bem::BemModel& model);

  [[nodiscard]] Engine& engine() const { return *engine_; }
  [[nodiscard]] const bem::AnalysisOptions& options() const { return options_; }

  /// Number of submit()/analyze()/factor() runs so far (submitted runs
  /// count at submission).
  [[nodiscard]] std::size_t runs() const { return runs_.load(std::memory_order_relaxed); }

 private:
  Engine* engine_;
  bem::AnalysisOptions options_;
  std::atomic<std::size_t> runs_{0};
};

}  // namespace ebem::engine
