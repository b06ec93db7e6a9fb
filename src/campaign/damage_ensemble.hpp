// campaign::DamageEnsemble — conductor-damage ablations of one grid design.
//
// Grounding grids degrade in service: joints corrode open, conductors are
// cut by excavation, rods detach. The safety question is then "which single
// (or double) failures push the design out of tolerance?" — a batch of
// nearby models derived from one base design, exactly the workload the
// engine's pipelining scheduler and warm congruence cache are built for
// (the soil is fixed, so every scenario shares one physics, and with it one
// cache: the undamaged majority of each grid replays cached elemental
// blocks).
//
// Each scenario breaks a seeded, deterministic selection of conductors in
// one of two ways: *removal* (the conductor disappears — a detached rod or
// stolen bar) or *segmentation* (a centered gap opens — a corroded joint:
// the stubs remain and still dissipate current). The damaged conductor set
// is split at soil interfaces and re-meshed with the same geom::MeshOptions
// every time, so scenario meshes are valid, deterministic and comparable
// to the base design's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/bem/element.hpp"
#include "src/campaign/sampler.hpp"
#include "src/geom/conductor.hpp"
#include "src/geom/mesh.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::campaign {

/// One broken conductor within a scenario.
struct ConductorBreak {
  std::size_t conductor = 0;  ///< index into the base conductor set
  bool removed = false;       ///< true: removal; false: centered-gap segmentation
};

struct DamageOptions {
  /// Broken conductors per scenario, sampled uniformly in
  /// [min_breaks, max_breaks].
  std::size_t min_breaks = 1;
  std::size_t max_breaks = 2;
  /// Probability that a break removes the conductor entirely; otherwise it
  /// opens a centered gap (segmentation).
  double removal_probability = 0.5;
  /// Gap length as a fraction of the conductor length for segmented breaks
  /// (must leave two stubs: 0 < gap_fraction < 1).
  double gap_fraction = 0.25;
  /// Meshing of every scenario (same options for all, so element sizes are
  /// comparable across the ensemble and with the undamaged base design).
  geom::MeshOptions mesh;

  /// Throws ebem::InvalidArgument on contradictions (empty break range,
  /// max_breaks >= conductor count, probabilities/fractions out of range).
  void validate(std::size_t conductor_count) const;
};

/// A fixed-size, seeded ensemble of damaged variants of one base design.
/// Everything is a pure function of (base, options, count, seed, index).
class DamageEnsemble {
 public:
  DamageEnsemble(std::vector<geom::Conductor> base, soil::LayeredSoil soil,
                 DamageOptions options, std::size_t count, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return sampler_.count(); }
  [[nodiscard]] std::uint64_t seed() const { return sampler_.seed(); }
  [[nodiscard]] const std::vector<geom::Conductor>& base() const { return base_; }
  [[nodiscard]] const soil::LayeredSoil& soil() const { return soil_; }
  [[nodiscard]] const DamageOptions& options() const { return options_; }

  /// The i-th scenario's break list (deterministic; conductor indices are
  /// strictly increasing and distinct).
  [[nodiscard]] std::vector<ConductorBreak> breaks(std::size_t index) const;

  /// The damaged conductor set of scenario i (removals dropped, segmented
  /// conductors replaced by their two stubs).
  [[nodiscard]] std::vector<geom::Conductor> scenario_conductors(std::size_t index) const;

  /// Scenario i split at soil interfaces and meshed with options().mesh.
  [[nodiscard]] geom::Mesh scenario_mesh(std::size_t index) const;

  /// The ready-to-submit model of scenario i.
  [[nodiscard]] bem::BemModel scenario_model(std::size_t index) const;

 private:
  std::vector<geom::Conductor> base_;
  soil::LayeredSoil soil_;
  DamageOptions options_;
  Sampler sampler_;
};

}  // namespace ebem::campaign
