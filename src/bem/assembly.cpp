#include "src/bem/assembly.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <optional>

#include "src/bem/far_field.hpp"
#include "src/common/error.hpp"
#include "src/common/timer.hpp"
#include "src/la/compressed_tile_store.hpp"
#include "src/parallel/openmp_backend.hpp"
#include "src/soil/kernel_factory.hpp"
#include "src/parallel/parallel_for.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::bem {

namespace {

/// Concurrent accumulation view of the tiled symmetric matrix: each add
/// locks the lock of the *tile* holding the entry (tile ids beyond the lock
/// array share locks by modulus, which only ever over-serializes). An
/// elemental 2x2 block maps to at most four tiles, and with the
/// element-pair integration costing orders of magnitude more than the
/// scatter, contention is negligible. Entry writes go through
/// SymMatrix::add, so the same path drives the in-memory arena and the
/// out-of-core spill pager (whose own pin bookkeeping is thread-safe; the
/// tile lock makes the read-modify-write of the entry atomic).
class TileLockedMatrix {
 public:
  explicit TileLockedMatrix(la::SymMatrix& matrix) : matrix_(matrix) {}

  void add(std::size_t j, std::size_t i, double value) {
    const la::TileLayout& layout = matrix_.layout();
    const std::size_t hi = std::max(i, j);
    const std::size_t lo = std::min(i, j);
    const std::size_t tile = layout.tile_index(layout.tile_of(hi), layout.tile_of(lo));
    const std::scoped_lock lock(locks_[tile % kLocks].mutex);
    matrix_.add(hi, lo, value);
  }

 private:
  static constexpr std::size_t kLocks = 256;
  struct alignas(64) Lock {
    std::mutex mutex;
  };

  la::SymMatrix& matrix_;
  std::array<Lock, kLocks> locks_;
};

/// Scatter one elemental block into the global symmetric matrix.
///
/// Only the element-pair triangle beta <= alpha is computed; the reversed
/// ordered pair (alpha as test, beta as trial) is the transpose by kernel
/// reciprocity. Packed symmetric storage holds the *value* F(j, i) of the
/// full matrix, so:
///  * self pairs (beta == alpha): the (symmetrized) block is scattered over
///    its local upper triangle only — each unordered global pair once;
///  * cross pairs: each (p, q) combination maps to a distinct unordered
///    global pair, except when the elements share a node and j == i, where
///    both the pair and its transpose hit the same diagonal entry — that
///    contribution enters twice.
///
/// `Sink` is either the bare SymMatrix (sequential path) or a
/// TileLockedMatrix (fused streaming path); both expose add-compatible
/// entry access.
template <typename Sink>
void scatter(const BemModel& model, BasisKind basis, std::size_t beta, std::size_t alpha,
             const LocalMatrix& local, Sink&& add) {
  const std::size_t locals = model.local_dof_count(basis);
  if (beta == alpha) {
    for (std::size_t p = 0; p < locals; ++p) {
      const std::size_t j = model.global_dof(basis, beta, p);
      for (std::size_t q = p; q < locals; ++q) {
        const std::size_t i = model.global_dof(basis, alpha, q);
        // Symmetrize: the analytic-inner/Gauss-outer split introduces a tiny
        // quadrature-level asymmetry the Galerkin form does not have.
        add(j, i, 0.5 * (local.value[p][q] + local.value[q][p]));
      }
    }
    return;
  }
  for (std::size_t p = 0; p < locals; ++p) {
    const std::size_t j = model.global_dof(basis, beta, p);
    for (std::size_t q = 0; q < locals; ++q) {
      const std::size_t i = model.global_dof(basis, alpha, q);
      add(j, i, (j == i) ? 2.0 * local.value[p][q] : local.value[p][q]);
    }
  }
}

std::vector<double> build_rhs(const BemModel& model, BasisKind basis) {
  std::vector<double> rhs(model.dof_count(basis), 0.0);
  for (std::size_t e = 0; e < model.element_count(); ++e) {
    const BemElement& element = model.elements()[e];
    if (basis == BasisKind::kLinear) {
      // integral of each hat over the element is L/2.
      rhs[element.node_a] += 0.5 * element.length;
      rhs[element.node_b] += 0.5 * element.length;
    } else {
      rhs[e] = element.length;
    }
  }
  return rhs;
}

}  // namespace

AssemblyResult assemble(const BemModel& model, const AssemblyOptions& options,
                        const AssemblyExecution& execution) {
  EBEM_EXPECT(execution.num_threads >= 1, "need at least one thread");
  EBEM_EXPECT(execution.cache == nullptr || execution.cache->serves(model.soil(), options),
              "congruence cache was built for other physics (soil or assembly options)");
  const BasisKind basis = options.integrator.basis;
  const std::size_t m = model.element_count();
  const std::size_t n = model.dof_count(basis);

  const std::unique_ptr<soil::PointKernel> kernel =
      soil::make_kernel(model.soil(), options.series, options.hankel);
  IntegratorOptions integrator_options = options.integrator;
  if (model.soil().layer_count() > 2) {
    // No closed-form images beyond two layers: generic quadrature of the
    // spectral kernel (the paper's "un-admissible" cost regime, §4.2).
    integrator_options.inner = InnerIntegration::kSubtracted;
  }
  const Integrator integrator(*kernel, integrator_options);
  const auto& elements = model.elements();

  AssemblyResult result;
  // Geometric ordering: cluster the DoFs before the matrix exists, so tile
  // rows of the store land on the RCB leaf clusters. The permutation is the
  // matrix boundary — entries scatter through it below, while result.rhs
  // (and every caller-visible vector) stays in external order.
  if (execution.storage.compression.ordering == la::DofOrdering::kGeometric) {
    GeometricOrdering geometric =
        geometric_ordering(model, basis, execution.storage.tile_size);
    result.ordering_stats = geometric.stats;
    result.ordering =
        std::make_shared<const la::Permutation>(std::move(geometric.permutation));
  }
  const la::Permutation* perm = result.ordering.get();
  const auto internal_dof = [perm](std::size_t dof) {
    return perm != nullptr ? perm->to_internal(dof) : dof;
  };
  result.matrix = la::SymMatrix(n, execution.storage);
  result.rhs = build_rhs(model, basis);
  result.element_pairs = m * (m + 1) / 2;

  // Congruence cache: referenced, never owned — a null cache means the
  // cached element_pair overload degenerates to the plain computation.
  // Hits/misses are tallied here, per run, so they stay exact while other
  // runs share the cache. One relaxed fetch_add per pair is noise next to
  // the pair integration itself.
  CongruenceCache* cache = execution.cache;
  std::atomic<std::size_t> tally_hits{0};
  std::atomic<std::size_t> tally_misses{0};
  const auto finalize_stats = [&] {
    if (cache != nullptr) {
      result.cache_stats.hits = tally_hits.load(std::memory_order_relaxed);
      result.cache_stats.misses = tally_misses.load(std::memory_order_relaxed);
      result.cache_stats.entries = cache->entries();
    }
    result.matrix_tiles = result.matrix.tile_stats();
  };
  const auto tally = [&](bool hit) {
    if (cache == nullptr) return;
    (hit ? tally_hits : tally_misses).fetch_add(1, std::memory_order_relaxed);
  };

  const bool sequential = execution.num_threads == 1 && execution.pool == nullptr &&
                          !execution.measure_column_costs;

  // Worker pool, hoisted ahead of the pair loop so the far-field builder can
  // share it. The sequential path and the OpenMP backend own no pool.
  std::optional<par::ThreadPool> owned_pool;
  par::ThreadPool* pool = execution.pool;
  if (pool == nullptr && execution.backend == Backend::kThreadPool && !sequential) {
    owned_pool.emplace(execution.num_threads);
    pool = &*owned_pool;
  }

  // --- far-field compression ---------------------------------------------
  // With compression enabled the matrix store is the low-rank backend:
  // partition the tile square, build the admissible blocks by ACA (their
  // entries are the *full* Galerkin sums over incident element pairs), then
  // run the usual pair loop with two filters — pairs whose every entry lands
  // in a covered tile are skipped outright (the O(M^2) win), and scatter
  // drops the covered entries of partially covered pairs (already inside a
  // factor; writing them would both double-count and hit read-only tiles).
  la::CompressedTileStore* compressed = nullptr;
  const la::TileLayout& layout = result.matrix.layout();
  if (execution.storage.compression.enabled()) {
    compressed = dynamic_cast<la::CompressedTileStore*>(&result.matrix.store());
    EBEM_ENSURE(compressed != nullptr,
                "compression-enabled storage must be backed by a CompressedTileStore");
    const FarFieldPartition partition =
        partition_far_field(model, basis, layout, execution.storage.compression, perm);
    par::ThreadPool* build_pool = execution.backend == Backend::kThreadPool ? pool : nullptr;
    build_far_field(*compressed, model, basis, integrator, partition, build_pool,
                    result.far_field, perm, cache);
  }
  // Takes *internal* (storage-order) indices — callers map through the
  // permutation first, exactly once per entry.
  const auto entry_is_far = [&](std::size_t j, std::size_t i) {
    const std::size_t hi = std::max(i, j);
    const std::size_t lo = std::min(i, j);
    return compressed->tile_is_low_rank(layout.tile_of(hi), layout.tile_of(lo));
  };
  const std::size_t locals = model.local_dof_count(basis);
  const auto pair_is_far = [&](std::size_t beta, std::size_t alpha) {
    if (compressed == nullptr) return false;
    for (std::size_t p = 0; p < locals; ++p) {
      const std::size_t j = internal_dof(model.global_dof(basis, beta, p));
      for (std::size_t q = 0; q < locals; ++q) {
        if (!entry_is_far(j, internal_dof(model.global_dof(basis, alpha, q)))) return false;
      }
    }
    return true;
  };
  std::atomic<std::size_t> pairs_skipped{0};
  const auto finalize_compression = [&] {
    if (compressed == nullptr) return;
    result.compression = compressed->compression_stats();
    result.far_field.pairs_skipped = pairs_skipped.load(std::memory_order_relaxed);
    result.far_field.pairs_near = result.element_pairs - result.far_field.pairs_skipped;
  };

  if (sequential) {
    // Original sequential scheme: compute and assemble inside the loop.
    for (std::size_t beta = 0; beta < m; ++beta) {
      for (std::size_t alpha = beta; alpha < m; ++alpha) {
        if (pair_is_far(beta, alpha)) {
          pairs_skipped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        bool hit = false;
        const LocalMatrix local =
            integrator.element_pair(elements[beta], elements[alpha], cache, &hit);
        tally(hit);
        scatter(model, basis, beta, alpha, local, [&](std::size_t j, std::size_t i, double v) {
          const std::size_t jj = internal_dof(j);
          const std::size_t ii = internal_dof(i);
          if (compressed != nullptr && entry_is_far(jj, ii)) return;
          result.matrix.add(jj, ii, v);
        });
      }
    }
    finalize_compression();
    finalize_stats();
    return result;
  }

  // Fused streaming scheme: each worker computes an elemental matrix and
  // immediately accumulates it into the global matrix through the per-tile
  // locks — no per-pair storage, no serial scatter pass. With one thread
  // this degenerates to the sequential order, so timing-only runs
  // (measure_column_costs) stay bitwise identical to the sequential path.
  TileLockedMatrix striped(result.matrix);
  const auto fused_pair = [&](std::size_t beta, std::size_t alpha) {
    if (pair_is_far(beta, alpha)) {
      pairs_skipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    bool hit = false;
    const LocalMatrix local =
        integrator.element_pair(elements[beta], elements[alpha], cache, &hit);
    tally(hit);
    scatter(model, basis, beta, alpha, local, [&](std::size_t j, std::size_t i, double v) {
      const std::size_t jj = internal_dof(j);
      const std::size_t ii = internal_dof(i);
      if (compressed != nullptr && entry_is_far(jj, ii)) return;
      striped.add(jj, ii, v);
    });
  };
  if (execution.measure_column_costs) result.column_costs.assign(m, 0.0);

  const auto run_loop = [&](std::size_t count, const auto& body) {
    if (execution.backend == Backend::kOpenMp) {
      par::openmp_parallel_for(execution.num_threads, count, execution.schedule, body);
    } else {
      par::parallel_for(*pool, count, execution.schedule, body);
    }
  };

  if (execution.loop == ParallelLoop::kOuter) {
    run_loop(m, [&](std::size_t beta) {
      WallTimer timer;
      for (std::size_t alpha = beta; alpha < m; ++alpha) fused_pair(beta, alpha);
      if (!result.column_costs.empty()) result.column_costs[beta] = timer.seconds();
    });
  } else {
    for (std::size_t beta = 0; beta < m; ++beta) {
      WallTimer timer;
      const std::size_t rows = m - beta;
      run_loop(rows, [&](std::size_t r) { fused_pair(beta, beta + r); });
      if (!result.column_costs.empty()) result.column_costs[beta] = timer.seconds();
    }
  }
  finalize_compression();
  finalize_stats();
  return result;
}

}  // namespace ebem::bem
