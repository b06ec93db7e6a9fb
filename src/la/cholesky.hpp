// LL^T Cholesky factorization of a tiled symmetric positive-definite matrix.
//
// The direct O(N^3/3) reference solver of the paper's §4.3 cost analysis.
// Factorization is blocked right-looking over the factor's tile store with
// panel = tile column: the diagonal tile is factored in place, the panel
// tiles below it are triangular-solved, and the trailing Schur update
// subtracts one tile-by-tile outer product — the panel solve and trailing
// update, which carry almost all of the N^3 work, run in parallel over
// tiles when a worker pool is supplied. Every entry of L is produced by
// exactly one worker with a fixed summation order, so the factor is
// bit-identical regardless of thread count or schedule timing.
//
// The working store is pluggable (tile_store.hpp): by default the factor
// inherits the input matrix's storage policy, so factoring a spill-backed
// matrix pages panels through the same residency budget and an N x N
// factorization runs with only a configured fraction of the triangle
// resident. At most three tiles are pinned per worker at any moment.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/la/sym_matrix.hpp"
#include "src/la/tile_store.hpp"

namespace ebem::par {
class ThreadPool;
}  // namespace ebem::par

namespace ebem::la {

struct CholeskyOptions {
  /// Panel width of the blocked algorithm — the tile size of the factor's
  /// working store. Values around 32-128 keep the three pinned tiles of the
  /// trailing update resident in cache.
  std::size_t block = 64;
  /// Non-owning worker pool for the panel solve and trailing update;
  /// null (or a single-thread pool) selects the serial blocked path. A step
  /// with a single tile of work runs inline either way, so a factor of at
  /// most two tile rows opens no pool region at all.
  par::ThreadPool* pool = nullptr;
  /// Storage policy of the factor's working store (residency budget and
  /// spill directory; the tile size always comes from `block`). Defaults to
  /// inheriting the input matrix's policy, so a spill-backed system is
  /// factored out of core without further configuration.
  std::optional<StorageConfig> storage;
};

/// Cholesky factor of an SPD matrix; factorization happens at construction.
/// Throws ebem::InvalidArgument if the matrix is not positive definite and
/// ebem::IoError if a spill-backed working store cannot reach its scratch
/// file — both are ebem::Error.
class Cholesky {
 public:
  explicit Cholesky(const SymMatrix& a);
  Cholesky(const SymMatrix& a, const CholeskyOptions& options);

  /// Solve A x = b.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Solve A X = B for `num_rhs` right-hand sides at once, reusing this
  /// factorization. `b` is the n x num_rhs block in row-major layout
  /// (b[i * num_rhs + c] is row i of column c); the result uses the same
  /// layout. The substitutions are blocked over RHS columns: each tile of L
  /// is loaded once per column chunk and applied to the whole chunk, which
  /// is where the multi-RHS path beats num_rhs independent solve() calls.
  /// Chunks run in parallel over `pool` when provided; each column's
  /// arithmetic is identical to solve() in the same order, so the result is
  /// bit-equal to column-by-column solve() for every thread count.
  [[nodiscard]] std::vector<double> solve_many(std::span<const double> b, std::size_t num_rhs,
                                               par::ThreadPool* pool = nullptr) const;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Materialized packed lower triangle of L (row-major), exposed for tests.
  [[nodiscard]] std::vector<double> packed_factor() const;

  /// Pager counters of the factor's working store (zeros when in-memory).
  [[nodiscard]] TileStoreStats tile_stats() const {
    return l_ ? l_->stats() : TileStoreStats{};
  }

 private:
  std::size_t n_ = 0;
  std::unique_ptr<TileStore> l_;  ///< tiles of L (strict lower + diagonal)

  /// Unblocked factorization of diagonal tile (kt, kt).
  void factor_diagonal_tile(std::size_t kt);
  /// Tiles (it, kt), it > kt: L_ik <- L_ik L_kk^-T.
  void panel_solve(std::size_t kt, par::ThreadPool* pool);
  /// Trailing Schur complement: L_ij -= L_ik L_jk^T for kt < jt <= it.
  void trailing_update(std::size_t kt, par::ThreadPool* pool);
  /// Substitute columns [c0, c1) of the row-major n x num_rhs block through
  /// both triangles, in the exact per-column order of solve().
  void solve_chunk(double* x, std::size_t num_rhs, std::size_t c0, std::size_t c1) const;
};

}  // namespace ebem::la
