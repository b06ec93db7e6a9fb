// Dense symmetric matrix over a pluggable tile store.
//
// The Galerkin BEM system matrix is dense, symmetric and positive definite
// (paper §4.2); only the lower triangle is stored, as fixed-size square
// tiles behind the la::TileStore interface (tile_store.hpp). The default
// backend is the contiguous in-memory arena; a StorageConfig with a
// residency budget selects the file-backed spill pager, which lets systems
// larger than memory be assembled, multiplied and factored with a bounded
// resident set; a StorageConfig with compression enabled selects the
// low-rank (H-matrix) backend, whose far-field tiles multiply() applies
// straight from their U V^T factors. Algorithms walk tiles, never one flat
// array.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "src/la/tile_store.hpp"

namespace ebem::par {
class ThreadPool;
}  // namespace ebem::par

namespace ebem::la {

class SymMatrix {
 public:
  SymMatrix() = default;
  explicit SymMatrix(std::size_t n, const StorageConfig& storage = {});

  /// Deep copy: re-creates the same backend (a spill-backed matrix clones
  /// into its own fresh scratch file).
  SymMatrix(const SymMatrix& other);
  SymMatrix& operator=(const SymMatrix& other);
  SymMatrix(SymMatrix&&) noexcept = default;
  SymMatrix& operator=(SymMatrix&&) noexcept = default;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Entry value; (i, j) and (j, i) alias the same storage. Works on every
  /// backend (paged backends check the tile out and back in).
  [[nodiscard]] double operator()(std::size_t i, std::size_t j) const { return get(i, j); }

  /// Mutable entry reference — only for directly addressable (in-memory)
  /// storage, where the reference is stable; throws ebem::InvalidArgument on
  /// a paged backend (use set()/add() there).
  [[nodiscard]] double& operator()(std::size_t i, std::size_t j);

  [[nodiscard]] double get(std::size_t i, std::size_t j) const;
  void set(std::size_t i, std::size_t j, double value);
  void add(std::size_t i, std::size_t j, double value);

  /// y = A x, walking the lower-triangle tiles once (each scatters both its
  /// (i, j) and (j, i) contributions).
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// Below this dimension the pooled multiply falls back to the serial walk
  /// (bitwise identical to the pool-less overload): dispatching two parallel
  /// regions costs more than the whole matvec — measured 0.37x "speedup" at
  /// 4 threads on a 169-DoF PCG solve with the old 128 cutoff. Every solve
  /// path uses this crossover; the multiply's argument exists for tests.
  static constexpr std::size_t kParallelCutoff = 512;

  /// y = A x on `pool`'s workers: tile rows are split into weight-balanced
  /// strips, each strip owning y for its rows and scattering its transpose
  /// part into a per-strip partial that a second parallel pass reduces in
  /// fixed strip order — deterministic for a given pool size. Falls back to
  /// the serial walk for a null/single-thread pool or a matrix smaller than
  /// `parallel_cutoff`.
  void multiply(std::span<const double> x, std::span<double> y, par::ThreadPool* pool,
                std::size_t parallel_cutoff = kParallelCutoff) const;

  /// Diagonal entries, used by the Jacobi preconditioner.
  [[nodiscard]] std::vector<double> diagonal() const;

  /// Materialized packed row-major lower triangle (n(n+1)/2 doubles) — an
  /// interchange/debug format, not a view of storage.
  [[nodiscard]] std::vector<double> packed() const;

  void set_zero();

  /// The backing tile store (layout, checkout, pager counters).
  [[nodiscard]] const TileStore& store() const { return *store_; }
  [[nodiscard]] TileStore& store() { return *store_; }
  [[nodiscard]] const StorageConfig& storage_config() const { return store_->config(); }
  [[nodiscard]] const TileLayout& layout() const { return store_->layout(); }
  [[nodiscard]] TileStoreStats tile_stats() const {
    return store_ ? store_->stats() : TileStoreStats{};
  }

 private:
  /// Arena offset of entry (i, j), i >= j — the one place the tile-slot
  /// address arithmetic lives.
  [[nodiscard]] std::size_t arena_slot(std::size_t i, std::size_t j) const;
  /// Run `op(entry)` on (i, j) through the backend-appropriate write path.
  template <typename Op>
  void apply_entry(std::size_t i, std::size_t j, Op&& op);

  std::size_t n_ = 0;
  std::unique_ptr<TileStore> store_;
  /// Cached store_->direct_data(): non-null iff entries are addressable
  /// without checkout (the scalar-access fast path).
  double* direct_ = nullptr;
};

}  // namespace ebem::la
