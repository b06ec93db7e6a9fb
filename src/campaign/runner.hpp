// campaign::Runner — one Study, a batch of scenarios, a distributional
// answer.
//
// The paper's CAD loop asks "is this design safe?" against one fitted soil;
// a campaign asks the same question against an ensemble — stochastic soils
// around the Wenner fit (SoilEnsemble) or damage ablations of the design
// (DamageEnsemble) — and reduces the batch to percentiles of equivalent
// resistance, GPR and touch/step safety margins.
//
// Execution shape: scenarios are submitted through engine::Study::submit
// with a bounded in-flight window (backpressure — at most
// CampaignOptions::window runs hold assembled matrices at once, so a
// 10k-scenario campaign cannot exhaust memory by queueing), futures are
// harvested as they complete (completion order, so a slow scenario never
// pins its successors' resources), and observations are committed into the
// streaming summaries strictly in scenario-index order. That last step is
// what the determinism guarantee rests on: for a fixed seed, the reported
// percentiles are bit-identical regardless of pipeline width or how
// completions interleave.
//
// Safety step: with a SafetyPatch, each committed scenario's touch/step
// patch is evaluated under the study's own physics (its basis, integrator,
// image series and Hankel options — the ones the scenario was solved with)
// on the model copy kept at submit, by a post::PotentialEvaluator that
// borrows the engine's pool. The patch therefore runs pool-wide between
// the pipelined runs' parallel regions instead of serially on the caller's
// thread, and its values do not depend on the pool's width.
//
// Batching note: a congruence cache serves one physics, so every soil
// scenario starts from a fresh, empty cache — soil sweeps replay only the
// congruent pairs within each grid, never across scenarios. Damage sweeps
// keep the physics fixed and replay the cache across scenarios; a mixed
// batch should therefore be grouped by physics (alternating soils A, B, A,
// B gets no cross-scenario reuse; all of one soil first does) — which the
// one-ensemble-per-run() API enforces naturally.
#pragma once

#include <cstddef>
#include <optional>

#include "src/bem/analysis.hpp"
#include "src/campaign/damage_ensemble.hpp"
#include "src/campaign/soil_ensemble.hpp"
#include "src/campaign/summary.hpp"
#include "src/common/phase_report.hpp"
#include "src/engine/study.hpp"
#include "src/post/safety.hpp"

namespace ebem::campaign {

/// One scenario batch: anything that can produce its i-th model on demand.
/// Implementations must be pure (same index, same model). The runner asks
/// for each scenario's model exactly once, at submit; with a safety patch it
/// keeps a copy for post-processing.
class ScenarioSource {
 public:
  virtual ~ScenarioSource() = default;

  [[nodiscard]] virtual std::size_t size() const = 0;
  /// The i-th scenario, ready to submit.
  [[nodiscard]] virtual bem::BemModel model(std::size_t index) const = 0;
  /// Native soil resistivity at the surface for scenario i [Ohm m] — feeds
  /// the scenario's tolerable-limit criteria (IEEE Std 80 limits depend on
  /// the soil under one's feet, which a soil sweep varies per scenario).
  [[nodiscard]] virtual double surface_soil_resistivity(std::size_t index) const = 0;
};

/// Soil sweep: one conductor design re-analyzed under every sampled soil.
/// The design is split at each scenario's own layer interface and re-meshed
/// (H moves between scenarios, and elements must not straddle the
/// interface). Worst case for the warm cache — the physics changes every
/// scenario, so each one starts a fresh cache.
class SoilSweep final : public ScenarioSource {
 public:
  SoilSweep(std::vector<geom::Conductor> conductors, geom::MeshOptions mesh,
            SoilEnsemble ensemble);

  [[nodiscard]] std::size_t size() const override { return ensemble_.size(); }
  [[nodiscard]] bem::BemModel model(std::size_t index) const override;
  [[nodiscard]] double surface_soil_resistivity(std::size_t index) const override;
  [[nodiscard]] const SoilEnsemble& ensemble() const { return ensemble_; }

 private:
  std::vector<geom::Conductor> conductors_;
  geom::MeshOptions mesh_;
  SoilEnsemble ensemble_;
};

/// Damage sweep: one soil, many damaged variants of the design. The physics
/// is fixed across the batch, so scenarios share the warm congruence cache
/// (the undamaged majority of each grid replays cached blocks).
class DamageSweep final : public ScenarioSource {
 public:
  explicit DamageSweep(DamageEnsemble ensemble) : ensemble_(std::move(ensemble)) {}

  [[nodiscard]] std::size_t size() const override { return ensemble_.size(); }
  [[nodiscard]] bem::BemModel model(std::size_t index) const override {
    return ensemble_.scenario_model(index);
  }
  [[nodiscard]] double surface_soil_resistivity(std::size_t) const override {
    return ensemble_.soil().resistivity(0);
  }
  [[nodiscard]] const DamageEnsemble& ensemble() const { return ensemble_; }

 private:
  DamageEnsemble ensemble_;
};

/// Where and how to assess touch/step safety for every committed scenario.
/// The potentials are evaluated with the study's physics options.
struct SafetyPatch {
  double x0 = 0.0, x1 = 0.0;  ///< sampled surface rectangle [m]
  double y0 = 0.0, y1 = 0.0;
  std::size_t nx = 6, ny = 6;  ///< sample counts per axis
  /// Tolerable-limit inputs. criteria.soil_resistivity is overwritten per
  /// scenario with ScenarioSource::surface_soil_resistivity.
  post::SafetyCriteria criteria;
};

/// Early termination once a watched percentile is known tightly enough.
struct CampaignEarlyStop {
  double quantile = 0.95;  ///< watched percentile of equivalent resistance
  /// Stop when the order-statistic confidence half-width of the watched
  /// quantile drops below this fraction of the quantile itself. 0 disables
  /// early stopping (the default: run the whole ensemble).
  double relative_half_width = 0.0;
  std::size_t min_scenarios = 32;  ///< never stop before this many commits
  double z = 1.96;                 ///< confidence level of the bracket
};

struct CampaignOptions {
  /// Maximum in-flight submissions (backpressure bound). Small multiples of
  /// the engine's pipeline_width keep the pipeline fed without holding more
  /// assembled matrices than the window.
  std::size_t window = 8;
  /// Fault current I_f [A]. When > 0, each scenario's GPR is I_f x R_eq_i
  /// (the physical coupling: the same fault through a different earth gives
  /// a different rise) and sigma is rescaled accordingly before safety
  /// evaluation. When 0, the study's fixed options().gpr is used for every
  /// scenario.
  double fault_current = 0.0;
  QuantileMode quantiles = QuantileMode::kExact;
  CampaignEarlyStop early_stop;
  /// Touch/step assessment per scenario; nullopt skips safety entirely
  /// (resistance/GPR statistics only).
  std::optional<SafetyPatch> safety;

  /// Throws ebem::InvalidArgument on contradictions (zero window, early
  /// stop without exact quantiles, degenerate safety patch, ...).
  void validate() const;
};

struct CampaignResult {
  std::size_t scenarios = 0;  ///< ensemble size
  std::size_t completed = 0;  ///< scenarios committed into the statistics
  bool stopped_early = false;

  MetricSummary resistance;    ///< equivalent resistance R_eq [Ohm]
  MetricSummary gpr;           ///< ground potential rise [V]
  MetricSummary touch_margin;  ///< tolerable - actual max touch voltage [V]
  MetricSummary step_margin;   ///< tolerable - actual max step voltage [V]
  std::size_t touch_violations = 0;  ///< committed scenarios with margin < 0
  std::size_t step_violations = 0;

  /// Congruence-cache rollup: the sum of committed runs' exact deltas.
  bem::CongruenceCacheStats cache;
  /// Phase timings + counters merged from committed runs' PhaseReports
  /// (includes the congruence-cache hit/miss counters).
  PhaseReport phases;

  std::size_t peak_in_flight = 0;  ///< observed maximum; <= options.window
  double wall_seconds = 0.0;
};

/// Drives one ScenarioSource through a Study. Stateless between run() calls;
/// the study (and its engine) are borrowed and must outlive the runner.
class Runner {
 public:
  /// Validates the options (throws ebem::InvalidArgument).
  explicit Runner(engine::Study& study, CampaignOptions options = {});

  [[nodiscard]] const CampaignOptions& options() const { return options_; }

  /// Run the whole ensemble (or until early stop) and reduce. Throws on an
  /// empty source; rethrows the first failed scenario's exception.
  [[nodiscard]] CampaignResult run(const ScenarioSource& source);

 private:
  engine::Study* study_;
  CampaignOptions options_;
};

}  // namespace ebem::campaign
