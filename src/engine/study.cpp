#include "src/engine/study.hpp"

#include <utility>

namespace ebem::engine {

Study::Study(Engine& engine, bem::AnalysisOptions options)
    : engine_(&engine), options_(std::move(options)) {}

RunFuture Study::submit(bem::BemModel model, RunCallback on_complete) {
  RunFuture future = engine_->submit(std::move(model), options_, std::move(on_complete));
  // Counted only after submit() accepted the run — a validation throw above
  // must not inflate runs().
  runs_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

bem::AnalysisResult Study::analyze(const bem::BemModel& model, PhaseReport* run_report) {
  bem::AnalysisResult result = engine_->analyze(model, options_, run_report);
  runs_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

FactoredSystem Study::factor(const bem::BemModel& model) {
  FactoredSystem system = engine_->factor(model, options_);
  runs_.fetch_add(1, std::memory_order_relaxed);
  return system;
}

}  // namespace ebem::engine
