#include "src/bem/assembly.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

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

/// One worker's accumulation buffer for an assembly *segment*: test element
/// beta against a contiguous range of source elements alpha. Line p holds
/// row global_dof(beta, p) of the full matrix, indexed by external column
/// DoF; a touched-index list per line keeps the flush and the reset
/// proportional to what the segment wrote, so a one-pair segment (the inner
/// loop's finest chunk) costs O(1), not O(n).
class SegmentBuffer {
 public:
  SegmentBuffer(std::size_t lines, std::size_t n)
      : n_(n), sums_(lines * n, 0.0), seen_(lines * n, 0), touched_(lines) {}

  void add(std::size_t line, std::size_t i, double value) {
    const std::size_t k = line * n_ + i;
    if (seen_[k] == 0) {
      seen_[k] = 1;
      touched_[line].push_back(i);
    }
    sums_[k] += value;
  }

  /// visit(i, sum) for every touched entry of `line` in first-touch order,
  /// resetting the line as it goes.
  template <typename Visit>
  void drain(std::size_t line, Visit&& visit) {
    for (const std::size_t i : touched_[line]) {
      const std::size_t k = line * n_ + i;
      visit(i, sums_[k]);
      sums_[k] = 0.0;
      seen_[k] = 0;
    }
    touched_[line].clear();
  }

 private:
  std::size_t n_;
  std::vector<double> sums_;
  std::vector<std::uint8_t> seen_;
  std::vector<std::vector<std::size_t>> touched_;
};

/// Add one elemental block to the segment buffer.
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
void scatter(const BemModel& model, BasisKind basis, std::size_t beta, std::size_t alpha,
             const LocalMatrix& local, SegmentBuffer& buffer) {
  const std::size_t locals = model.local_dof_count(basis);
  for (std::size_t p = 0; p < locals; ++p) {
    const std::size_t j = model.global_dof(basis, beta, p);
    if (beta == alpha) {
      // Symmetrize: the analytic-inner/Gauss-outer split introduces a tiny
      // quadrature-level asymmetry the Galerkin form does not have.
      for (std::size_t q = p; q < locals; ++q) {
        buffer.add(p, model.global_dof(basis, alpha, q),
                   0.5 * (local.value[p][q] + local.value[q][p]));
      }
      continue;
    }
    for (std::size_t q = 0; q < locals; ++q) {
      const std::size_t i = model.global_dof(basis, alpha, q);
      buffer.add(p, i, (j == i) ? 2.0 * local.value[p][q] : local.value[p][q]);
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

  // One worker and no pool is the serial reference path, whatever the
  // backend: it runs on a one-thread pool (no thread is spawned), so it
  // shares every line below with the pooled paths and a one-thread pool
  // assembly is bitwise equal to it.
  const bool openmp = execution.backend == Backend::kOpenMp &&
                      (execution.num_threads > 1 || execution.pool != nullptr);
  std::optional<par::ThreadPool> owned_pool;
  if (execution.pool == nullptr && !openmp) owned_pool.emplace(execution.num_threads);
  par::ThreadPool* pool = owned_pool ? &*owned_pool : execution.pool;
  const std::size_t workers = openmp ? execution.num_threads : pool->num_threads();

  // --- far-field compression ---------------------------------------------
  // With compression enabled the matrix store is the low-rank backend:
  // partition the tile square, build the admissible blocks by ACA (their
  // entries are the *full* Galerkin sums over incident element pairs), then
  // run the usual pair loop with two filters — pairs whose every entry lands
  // in a covered tile are skipped outright (the O(M^2) win), and the flush
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
    build_far_field(*compressed, model, basis, integrator, partition, openmp ? nullptr : pool,
                    result.far_field, perm, execution.cache);
  }
  // Packed index of the tile holding *internal* (storage-order) entry
  // (j, i) — callers map through the permutation first, once per entry.
  const auto tile_of_entry = [&](std::size_t j, std::size_t i) {
    return layout.tile_index(layout.tile_of(std::max(i, j)), layout.tile_of(std::min(i, j)));
  };
  const auto entry_is_far = [&](std::size_t j, std::size_t i) {
    return compressed->tile_is_low_rank(layout.tile_of(std::max(i, j)),
                                        layout.tile_of(std::min(i, j)));
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

  // Segmented scheme: a worker integrates one segment (element beta
  // against a range of alpha) into its own SegmentBuffer, then flushes the
  // segment into the matrix once. Concurrent flushes hold the tile's lock
  // for each run of entries in one tile (tiles beyond the lock array share
  // locks by modulus, which only over-serializes); a single worker flushes
  // unlocked. Entry writes go through SymMatrix::add, so the same path
  // drives the in-memory arena and the out-of-core spill pager (whose pin
  // bookkeeping is thread-safe on its own). Hits, misses and skipped pairs
  // are tallied per segment, so they stay exact per run while other runs
  // share the cache, at one atomic add per segment.
  struct alignas(64) TileLock {
    std::mutex mutex;
  };
  constexpr std::size_t kMaxTileLocks = 256;
  std::vector<TileLock> locks(workers > 1 ? std::min(layout.tile_count(), kMaxTileLocks) : 0);
  std::vector<SegmentBuffer> buffers(workers, SegmentBuffer(locals, n));
  // Congruence keys come from per-element frames, built once per assembly.
  const std::vector<ElementFrame> frames =
      execution.cache == nullptr ? std::vector<ElementFrame>{}
                                 : make_element_frames(elements, execution.cache->quantum());
  std::array<std::atomic<std::size_t>, 3> totals{};  // hits, misses, skipped pairs
  const auto run_segment = [&](std::size_t worker, std::size_t beta, std::size_t alpha_begin,
                               std::size_t alpha_end) {
    SegmentBuffer& buffer = buffers[worker];
    std::array<std::size_t, 3> tally{};  // hits, misses, skipped
    for (std::size_t alpha = alpha_begin; alpha < alpha_end; ++alpha) {
      if (pair_is_far(beta, alpha)) {
        ++tally[2];
        continue;
      }
      LocalMatrix local;
      if (execution.cache == nullptr) {
        local = integrator.element_pair(elements[beta], elements[alpha]);
      } else {
        bool hit = false;
        local = integrator.element_pair(
            elements[beta], elements[alpha],
            make_canonical_pair_signature(frames[beta], frames[alpha]), *execution.cache, &hit);
        ++tally[hit ? 0 : 1];
      }
      scatter(model, basis, beta, alpha, local, buffer);
    }
    std::unique_lock<std::mutex> held;
    std::size_t held_lock = locks.size();
    for (std::size_t p = 0; p < locals; ++p) {
      const std::size_t jj = internal_dof(model.global_dof(basis, beta, p));
      buffer.drain(p, [&](std::size_t i, double sum) {
        const std::size_t ii = internal_dof(i);
        if (compressed != nullptr && entry_is_far(jj, ii)) return;
        const std::size_t lock = locks.empty() ? held_lock : tile_of_entry(jj, ii) % locks.size();
        if (lock != held_lock) {
          if (held.owns_lock()) held.unlock();  // holding two tile locks could deadlock
          held = std::unique_lock(locks[lock].mutex);
          held_lock = lock;
        }
        result.matrix.add(jj, ii, sum);
      });
    }
    for (std::size_t k = 0; k < 3; ++k) totals[k].fetch_add(tally[k], std::memory_order_relaxed);
  };

  // body(segments, worker) over [0, count): the pool hands out schedule
  // chunks; the OpenMP backend schedules one index per segment.
  const auto for_segments = [&](std::size_t count, const auto& body) {
    if (openmp) {
      par::openmp_parallel_for(execution.num_threads, count, execution.schedule,
                               [&](std::size_t k, std::size_t worker) {
                                 body(par::ChunkRange{k, k + 1}, worker);
                               });
    } else {
      par::parallel_for_chunks(*pool, count, execution.schedule, body);
    }
  };
  if (execution.measure_column_costs) result.column_costs.assign(m, 0.0);
  if (execution.loop == ParallelLoop::kOuter) {
    // A segment is a whole column.
    for_segments(m, [&](par::ChunkRange columns, std::size_t worker) {
      for (std::size_t beta = columns.begin; beta < columns.end; ++beta) {
        const double start = result.column_costs.empty() ? 0.0 : thread_cpu_seconds();
        run_segment(worker, beta, beta, m);
        if (!result.column_costs.empty()) result.column_costs[beta] = thread_cpu_seconds() - start;
      }
    });
  } else {
    // A segment is one chunk of a column's rows.
    for (std::size_t beta = 0; beta < m; ++beta) {
      WallTimer timer;
      for_segments(m - beta, [&](par::ChunkRange rows, std::size_t worker) {
        run_segment(worker, beta, beta + rows.begin, beta + rows.end);
      });
      if (!result.column_costs.empty()) result.column_costs[beta] = timer.seconds();
    }
  }

  if (execution.cache != nullptr) {  // referenced, never owned
    result.cache_stats.hits = totals[0].load(std::memory_order_relaxed);
    result.cache_stats.misses = totals[1].load(std::memory_order_relaxed);
    result.cache_stats.entries = execution.cache->entries();
  }
  if (compressed != nullptr) {
    result.compression = compressed->compression_stats();
    result.far_field.pairs_skipped = totals[2].load(std::memory_order_relaxed);
    result.far_field.pairs_near = result.element_pairs - result.far_field.pairs_skipped;
  }
  result.matrix_tiles = result.matrix.tile_stats();
  return result;
}

}  // namespace ebem::bem
