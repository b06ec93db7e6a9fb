// A validated DoF permutation: the boundary between *external* indices (the
// mesh/model numbering every caller speaks) and *internal* indices (the
// storage order of a tiled matrix).
//
// The H-matrix backend compresses well only when tile rows are spatially
// coherent clusters, and tile rows are contiguous *internal* index ranges —
// so geometry-independent compression needs the freedom to renumber DoFs for
// storage without leaking that renumbering to any caller. A Permutation is
// that seam: assembly scatters entries through to_internal(), the solve
// paths gather the right-hand side into internal order and scatter the
// solution back, and everything outside the matrix boundary (models, RHS
// vectors, sigma results, post-processing) stays in external order. Dense
// consumers (SymMatrix, TileStore, Cholesky) never see the permutation at
// all — a permuted matrix is just a symmetric matrix over relabeled rows.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ebem::la {

class Permutation {
 public:
  /// Empty permutation (size 0) — distinct from identity(n); mostly useful
  /// as a default-constructed placeholder.
  Permutation() = default;

  /// Build from the external -> internal index map. Throws
  /// ebem::InvalidArgument unless the map is a bijection on [0, n).
  explicit Permutation(std::vector<std::size_t> internal_of_external);

  [[nodiscard]] static Permutation identity(std::size_t n);

  [[nodiscard]] std::size_t size() const { return internal_of_external_.size(); }

  /// True when every index maps to itself (identity; trivially true at 0).
  [[nodiscard]] bool is_identity() const;

  [[nodiscard]] std::size_t to_internal(std::size_t external) const {
    return internal_of_external_[external];
  }
  [[nodiscard]] std::size_t to_external(std::size_t internal) const {
    return external_of_internal_[internal];
  }

  [[nodiscard]] const std::vector<std::size_t>& internal_of_external() const {
    return internal_of_external_;
  }

  /// Gather an external-order vector into internal order:
  /// out[i] = v[to_external(i)]. Throws unless v.size() == size().
  [[nodiscard]] std::vector<double> gather(std::span<const double> external) const;

  /// Scatter an internal-order vector back to external order:
  /// out[to_external(i)] = v[i] — the exact inverse of gather().
  [[nodiscard]] std::vector<double> scatter(std::span<const double> internal) const;

  /// Row-wise gather of a row-major n x num_rhs block (la::Cholesky's
  /// solve_many layout): internal row i is external row to_external(i).
  [[nodiscard]] std::vector<double> gather_block(std::span<const double> external,
                                                 std::size_t num_rhs) const;

  /// Row-wise scatter of a row-major n x num_rhs block — inverse of
  /// gather_block().
  [[nodiscard]] std::vector<double> scatter_block(std::span<const double> internal,
                                                  std::size_t num_rhs) const;

  friend bool operator==(const Permutation&, const Permutation&) = default;

 private:
  std::vector<std::size_t> internal_of_external_;
  std::vector<std::size_t> external_of_internal_;
};

}  // namespace ebem::la
