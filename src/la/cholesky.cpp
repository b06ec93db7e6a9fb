#include "src/la/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"
#include "src/parallel/parallel_for.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::la {

Cholesky::Cholesky(const SymMatrix& a) : Cholesky(a, {}) {}

Cholesky::Cholesky(const SymMatrix& a, const CholeskyOptions& options) : n_(a.size()) {
  EBEM_EXPECT(options.block >= 1, "panel width must be at least 1");
  StorageConfig config =
      options.storage.value_or(n_ > 0 ? a.storage_config() : StorageConfig{});
  config.tile_size = options.block;
  // The factor is never compressed: fill-in destroys the low-rank structure,
  // so a compressed input matrix densifies through copy_tiles below (its
  // read checkouts decompress tile by tile) into a plain store.
  config.compression = {};
  l_ = make_tile_store(n_, config);
  if (n_ == 0) return;
  copy_tiles(a.store(), *l_);

  par::ThreadPool* pool =
      (options.pool != nullptr && options.pool->num_threads() > 1) ? options.pool : nullptr;
  const std::size_t tile_rows = l_->layout().tile_rows();
  for (std::size_t kt = 0; kt < tile_rows; ++kt) {
    factor_diagonal_tile(kt);
    panel_solve(kt, pool);
    trailing_update(kt, pool);
  }
}

void Cholesky::factor_diagonal_tile(std::size_t kt) {
  const TileLayout& layout = l_->layout();
  const std::size_t tile = layout.tile();
  const std::size_t rows = layout.rows_in(kt);
  const TileGuard guard = l_->checkout(kt, kt, TileAccess::kWrite);
  double* t = guard.data();
  // Right-looking: previous panels' trailing updates already applied, so
  // only columns within the panel enter the dot products.
  for (std::size_t j = 0; j < rows; ++j) {
    const double* row_j = t + j * tile;
    double diag = row_j[j];
    for (std::size_t k = 0; k < j; ++k) diag -= row_j[k] * row_j[k];
    EBEM_EXPECT(diag > 0.0, "matrix is not positive definite");
    const double ljj = std::sqrt(diag);
    t[j * tile + j] = ljj;
    for (std::size_t i = j + 1; i < rows; ++i) {
      double* row_i = t + i * tile;
      double sum = row_i[j];
      for (std::size_t k = 0; k < j; ++k) sum -= row_i[k] * row_j[k];
      row_i[j] = sum / ljj;
    }
  }
}

void Cholesky::panel_solve(std::size_t kt, par::ThreadPool* pool) {
  const TileLayout& layout = l_->layout();
  const std::size_t tile_rows = layout.tile_rows();
  if (kt + 1 >= tile_rows) return;
  const std::size_t tile = layout.tile();
  const std::size_t width = layout.rows_in(kt);
  const auto solve_tile = [&](std::size_t it) {
    const TileGuard diag_guard = l_->checkout(kt, kt, TileAccess::kRead);
    const TileGuard panel_guard = l_->checkout(it, kt, TileAccess::kWrite);
    const double* d = diag_guard.data();
    double* p = panel_guard.data();
    const std::size_t rows = layout.rows_in(it);
    for (std::size_t r = 0; r < rows; ++r) {
      double* row = p + r * tile;
      for (std::size_t c = 0; c < width; ++c) {
        const double* diag_row = d + c * tile;
        double sum = row[c];
        for (std::size_t k = 0; k < c; ++k) sum -= row[k] * diag_row[k];
        row[c] = sum / diag_row[c];
      }
    }
  };
  // A single work item runs inline: opening a pool region for it would only
  // queue this factor behind other runs' regions.
  const std::size_t tiles = tile_rows - kt - 1;
  if (pool == nullptr || tiles == 1) {
    for (std::size_t r = 0; r < tiles; ++r) solve_tile(kt + 1 + r);
    return;
  }
  par::parallel_for(*pool, tiles, par::Schedule::guided(1),
                    [&](std::size_t r) { solve_tile(kt + 1 + r); });
}

void Cholesky::trailing_update(std::size_t kt, par::ThreadPool* pool) {
  const TileLayout& layout = l_->layout();
  const std::size_t tile_rows = layout.tile_rows();
  if (kt + 1 >= tile_rows) return;
  const std::size_t tile = layout.tile();
  const std::size_t width = layout.rows_in(kt);
  // Update tile (it, jt) of the Schur complement from panel tiles (it, kt)
  // and (jt, kt); three pins per worker, the pager's bounded working set.
  const auto update_tile = [&](std::size_t it, std::size_t jt) {
    const TileGuard left_guard = l_->checkout(it, kt, TileAccess::kRead);
    const TileGuard right_guard = l_->checkout(jt, kt, TileAccess::kRead);
    const TileGuard out_guard = l_->checkout(it, jt, TileAccess::kWrite);
    const double* a = left_guard.data();
    const double* b = right_guard.data();
    double* out = out_guard.data();
    const std::size_t rows = layout.rows_in(it);
    const std::size_t cols = layout.rows_in(jt);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* ar = a + r * tile;
      double* out_r = out + r * tile;
      // Diagonal tiles update their lower triangle only.
      const std::size_t cmax = it == jt ? r + 1 : cols;
      for (std::size_t c = 0; c < cmax; ++c) {
        const double* bc = b + c * tile;
        double sum = 0.0;
        for (std::size_t k = 0; k < width; ++k) sum += ar[k] * bc[k];
        out_r[c] -= sum;
      }
    }
  };
  // Flattened (it, jt) pairs with kt < jt <= it; tile cost grows with the
  // tile-row index, the profile the guided schedule balances.
  const std::size_t m = tile_rows - kt - 1;
  const std::size_t pairs = m * (m + 1) / 2;  // 1 runs inline, as in panel_solve
  const auto update_pair = [&](std::size_t p) {
    // p = local_i * (local_i + 1) / 2 + local_j over the local triangle.
    auto local_i = static_cast<std::size_t>((std::sqrt(8.0 * static_cast<double>(p) + 1.0) - 1.0) / 2.0);
    while (local_i * (local_i + 1) / 2 > p) --local_i;
    while ((local_i + 1) * (local_i + 2) / 2 <= p) ++local_i;
    const std::size_t local_j = p - local_i * (local_i + 1) / 2;
    update_tile(kt + 1 + local_i, kt + 1 + local_j);
  };
  if (pool == nullptr || pairs == 1) {
    for (std::size_t p = 0; p < pairs; ++p) update_pair(p);
    return;
  }
  par::parallel_for(*pool, pairs, par::Schedule::guided(1), update_pair);
}

void Cholesky::solve_chunk(double* x, std::size_t num_rhs, std::size_t c0,
                           std::size_t c1) const {
  const TileLayout& layout = l_->layout();
  const std::size_t tile = layout.tile();
  const std::size_t tile_rows = layout.tile_rows();
  const std::size_t width = c1 - c0;

  // Forward substitution: L Y = B. Off-diagonal tiles of tile row ti apply
  // in ascending tj, then the diagonal tile finishes and divides each row.
  for (std::size_t ti = 0; ti < tile_rows; ++ti) {
    const std::size_t i0 = layout.row_begin(ti);
    const std::size_t rows = layout.rows_in(ti);
    for (std::size_t tj = 0; tj < ti; ++tj) {
      const TileGuard guard = l_->checkout(ti, tj, TileAccess::kRead);
      const double* t = guard.data();
      const std::size_t j0 = layout.row_begin(tj);
      const std::size_t cols = layout.rows_in(tj);
      for (std::size_t r = 0; r < rows; ++r) {
        double* xi = x + (i0 + r) * num_rhs + c0;
        const double* row = t + r * tile;
        for (std::size_t cl = 0; cl < cols; ++cl) {
          const double lij = row[cl];
          const double* xj = x + (j0 + cl) * num_rhs + c0;
          for (std::size_t c = 0; c < width; ++c) xi[c] -= lij * xj[c];
        }
      }
    }
    const TileGuard guard = l_->checkout(ti, ti, TileAccess::kRead);
    const double* t = guard.data();
    for (std::size_t r = 0; r < rows; ++r) {
      double* xi = x + (i0 + r) * num_rhs + c0;
      const double* row = t + r * tile;
      for (std::size_t cl = 0; cl < r; ++cl) {
        const double lij = row[cl];
        const double* xj = x + (i0 + cl) * num_rhs + c0;
        for (std::size_t c = 0; c < width; ++c) xi[c] -= lij * xj[c];
      }
      const double lii = row[r];
      for (std::size_t c = 0; c < width; ++c) xi[c] /= lii;
    }
  }

  // Back substitution: L^T X = Y. Tile rows descend; the transpose
  // contributions of tiles (tj, ti), tj > ti, apply in ascending tj, then
  // the diagonal tile finalizes its rows bottom-up.
  for (std::size_t ti = tile_rows; ti-- > 0;) {
    const std::size_t i0 = layout.row_begin(ti);
    const std::size_t rows = layout.rows_in(ti);
    for (std::size_t tj = ti + 1; tj < tile_rows; ++tj) {
      const TileGuard guard = l_->checkout(tj, ti, TileAccess::kRead);
      const double* t = guard.data();
      const std::size_t j0 = layout.row_begin(tj);
      const std::size_t tjrows = layout.rows_in(tj);
      for (std::size_t r = 0; r < rows; ++r) {
        double* xi = x + (i0 + r) * num_rhs + c0;
        for (std::size_t jl = 0; jl < tjrows; ++jl) {
          const double lji = t[jl * tile + r];
          const double* xj = x + (j0 + jl) * num_rhs + c0;
          for (std::size_t c = 0; c < width; ++c) xi[c] -= lji * xj[c];
        }
      }
    }
    const TileGuard guard = l_->checkout(ti, ti, TileAccess::kRead);
    const double* t = guard.data();
    for (std::size_t r = rows; r-- > 0;) {
      double* xi = x + (i0 + r) * num_rhs + c0;
      for (std::size_t jl = r + 1; jl < rows; ++jl) {
        const double lji = t[jl * tile + r];
        const double* xj = x + (i0 + jl) * num_rhs + c0;
        for (std::size_t c = 0; c < width; ++c) xi[c] -= lji * xj[c];
      }
      const double lii = t[r * tile + r];
      for (std::size_t c = 0; c < width; ++c) xi[c] /= lii;
    }
  }
}

std::vector<double> Cholesky::solve_many(std::span<const double> b, std::size_t num_rhs,
                                         par::ThreadPool* pool) const {
  EBEM_EXPECT(num_rhs >= 1, "need at least one right-hand side");
  EBEM_EXPECT(b.size() == n_ * num_rhs, "right-hand-side block size mismatch");
  std::vector<double> x(b.begin(), b.end());
  if (n_ == 0) return x;

  // Fixed chunk width: the chunk partition — and with it every column's
  // summation order — is independent of the worker count, keeping the
  // result bitwise stable across thread counts and schedules.
  constexpr std::size_t kChunk = 8;
  const std::size_t chunks = (num_rhs + kChunk - 1) / kChunk;
  const auto run_chunk = [&](std::size_t chunk) {
    const std::size_t lo = chunk * kChunk;
    solve_chunk(x.data(), num_rhs, lo, std::min(lo + kChunk, num_rhs));
  };
  if (pool == nullptr || pool->num_threads() <= 1 || chunks <= 1) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) run_chunk(chunk);
  } else {
    par::parallel_for(*pool, chunks, par::Schedule::static_blocked(), run_chunk);
  }
  return x;
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  EBEM_EXPECT(b.size() == n_, "right-hand-side size mismatch");
  std::vector<double> x(b.begin(), b.end());
  if (n_ == 0) return x;
  solve_chunk(x.data(), 1, 0, 1);
  return x;
}

std::vector<double> Cholesky::packed_factor() const {
  if (l_ == nullptr) return {};
  return packed_lower(*l_);
}

}  // namespace ebem::la
