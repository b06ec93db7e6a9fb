// Finite-difference reference solver for the grounding problem.
//
// The paper dismisses domain discretization up front: "the use of standard
// numerical techniques (FEM or FD) should involve a completely out of range
// computing effort since discretization of the domain (the whole ground) is
// required" (§1/§3). This module builds exactly that baseline — a
// variable-coefficient 7-point FD discretization of div(gamma grad V) = 0
// on a truncated earth box, electrode nodes pinned to the GPR, matrix-free
// Jacobi-PCG solve — for two purposes:
//  1. an independent cross-check of the BEM equivalent resistance, and
//  2. a quantitative reproduction of the paper's cost argument (see
//     bench_paper's FD-vs-BEM section: ~10^5 unknowns and seconds for one
//     conductor at percent-level accuracy vs a handful of boundary elements).
//
// Accuracy caveats (validation-grade by design): the earth is truncated to
// a box with V = 0 on its far boundary (error ~ box size), and a conductor
// thinner than half a cell is represented by its nearest node line, which
// behaves like a conductor of effective radius O(cell size). Tests use
// resolvable (thick) conductors and loose tolerances.
#pragma once

#include <cstddef>
#include <vector>

#include "src/geom/conductor.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::fdm {

struct FdOptions {
  double padding = 30.0;        ///< box margin around the conductors [m]
  std::size_t cells_x = 48;     ///< grid cells per direction
  std::size_t cells_y = 48;
  std::size_t cells_z = 32;
  double cg_tolerance = 1e-8;
  std::size_t max_iterations = 0;  ///< 0 = automatic
};

struct FdResult {
  double equivalent_resistance = 0.0;  ///< [Ohm] at unit GPR
  double total_current = 0.0;          ///< [A] at unit GPR
  std::size_t unknowns = 0;            ///< free FD nodes
  std::size_t electrode_nodes = 0;
  std::size_t cg_iterations = 0;
  bool converged = false;
};

/// Solve the electrokinetic problem for the grounding system on an FD grid
/// and return the equivalent resistance (unit GPR).
[[nodiscard]] FdResult solve_grounding(const std::vector<geom::Conductor>& conductors,
                                       const soil::LayeredSoil& soil,
                                       const FdOptions& options = {});

}  // namespace ebem::fdm
