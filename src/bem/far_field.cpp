#include "src/bem/far_field.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "src/bem/congruence_cache.hpp"
#include "src/bem/pair_signature.hpp"
#include "src/common/error.hpp"
#include "src/la/aca.hpp"
#include "src/la/permutation.hpp"
#include "src/parallel/parallel_for.hpp"
#include "src/parallel/schedule.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::bem {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

void grow_box(geom::Vec3& box_min, geom::Vec3& box_max, const geom::Vec3& p) {
  box_min.x = std::min(box_min.x, p.x);
  box_min.y = std::min(box_min.y, p.y);
  box_min.z = std::min(box_min.z, p.z);
  box_max.x = std::max(box_max.x, p.x);
  box_max.y = std::max(box_max.y, p.y);
  box_max.z = std::max(box_max.z, p.z);
}

/// Box + longest-element geometry of a contiguous tile-row range (the
/// element list is merged separately, only where sampling needs it).
TileRowCluster merged_geometry(const std::vector<TileRowCluster>& clusters, std::size_t begin,
                               std::size_t end) {
  TileRowCluster merged;
  constexpr double inf = std::numeric_limits<double>::infinity();
  merged.box_min = {inf, inf, inf};
  merged.box_max = {-inf, -inf, -inf};
  for (std::size_t t = begin; t < end; ++t) {
    const TileRowCluster& c = clusters[t];
    grow_box(merged.box_min, merged.box_max, c.box_min);
    grow_box(merged.box_min, merged.box_max, c.box_max);
    merged.max_element_length = std::max(merged.max_element_length, c.max_element_length);
  }
  return merged;
}

/// Sorted-unique union of the ranges' incident element ids.
std::vector<std::size_t> merged_elements(const std::vector<TileRowCluster>& clusters,
                                         std::size_t begin, std::size_t end) {
  std::vector<std::size_t> merged;
  for (std::size_t t = begin; t < end; ++t) {
    merged.insert(merged.end(), clusters[t].elements.begin(), clusters[t].elements.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

/// One (element, local DoF) incidence of a global DoF.
struct Incidence {
  std::size_t element = 0;
  std::size_t local = 0;
};

/// Incidence lists indexed by *internal* (storage-order) DoF when an
/// ordering is supplied, so ACA samples address matrix rows directly.
std::vector<std::vector<Incidence>> build_incidence(const BemModel& model, BasisKind basis,
                                                    const la::Permutation* ordering) {
  std::vector<std::vector<Incidence>> incidence(model.dof_count(basis));
  const std::size_t locals = model.local_dof_count(basis);
  for (std::size_t e = 0; e < model.element_count(); ++e) {
    for (std::size_t l = 0; l < locals; ++l) {
      const std::size_t dof = model.global_dof(basis, e, l);
      incidence[ordering != nullptr ? ordering->to_internal(dof) : dof].push_back({e, l});
    }
  }
  return incidence;
}

/// ACA outcome of one candidate block.
struct Attempt {
  bool accepted = false;
  bool converged = false;
  la::LowRankBlock block;
  std::size_t pairs_sampled = 0;
  std::size_t pairs_replayed = 0;
};

}  // namespace

double box_distance(const geom::Vec3& a_min, const geom::Vec3& a_max, const geom::Vec3& b_min,
                    const geom::Vec3& b_max) {
  const double dx = std::max({0.0, b_min.x - a_max.x, a_min.x - b_max.x});
  const double dy = std::max({0.0, b_min.y - a_max.y, a_min.y - b_max.y});
  const double dz = std::max({0.0, b_min.z - a_max.z, a_min.z - b_max.z});
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

std::vector<TileRowCluster> build_tile_row_clusters(const BemModel& model, BasisKind basis,
                                                    const la::TileLayout& layout,
                                                    const la::Permutation* ordering) {
  EBEM_EXPECT(layout.n() == model.dof_count(basis),
              "tile layout dimension does not match the model's DoF count");
  EBEM_EXPECT(ordering == nullptr || ordering->size() == layout.n(),
              "DoF ordering dimension does not match the tile layout");
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<TileRowCluster> clusters(layout.tile_rows());
  for (TileRowCluster& c : clusters) {
    c.box_min = {inf, inf, inf};
    c.box_max = {-inf, -inf, -inf};
  }
  const std::size_t locals = model.local_dof_count(basis);
  const auto& elements = model.elements();
  for (std::size_t e = 0; e < elements.size(); ++e) {
    for (std::size_t l = 0; l < locals; ++l) {
      const std::size_t dof = model.global_dof(basis, e, l);
      const std::size_t tile_row =
          layout.tile_of(ordering != nullptr ? ordering->to_internal(dof) : dof);
      TileRowCluster& c = clusters[tile_row];
      c.elements.push_back(e);
      grow_box(c.box_min, c.box_max, elements[e].a);
      grow_box(c.box_min, c.box_max, elements[e].b);
      c.max_element_length = std::max(c.max_element_length, elements[e].length);
    }
  }
  for (TileRowCluster& c : clusters) {
    std::sort(c.elements.begin(), c.elements.end());
    c.elements.erase(std::unique(c.elements.begin(), c.elements.end()), c.elements.end());
    EBEM_ENSURE(!c.elements.empty(), "every tile row must be supported by at least one element");
  }
  return clusters;
}

bool clusters_admissible(const TileRowCluster& a, const TileRowCluster& b) {
  const double separation = box_distance(a.box_min, a.box_max, b.box_min, b.box_max);
  return transpose_separated(separation,
                             std::max(a.max_element_length, b.max_element_length));
}

FarFieldPartition partition_far_field(const BemModel& model, BasisKind basis,
                                      const la::TileLayout& layout,
                                      const la::CompressionConfig& compression,
                                      const la::Permutation* ordering) {
  EBEM_EXPECT(compression.enabled(), "partition_far_field requires an enabled compression config");
  FarFieldPartition partition;
  partition.clusters = build_tile_row_clusters(model, basis, layout, ordering);
  const auto& clusters = partition.clusters;

  const auto dofs_in = [&layout](std::size_t tile_begin, std::size_t tile_end) {
    return layout.row_end(tile_end - 1) - layout.row_begin(tile_begin);
  };

  // Recursion over (tile-row range) x (tile-column range). Diagonal squares
  // split into two diagonal children plus one below-diagonal block;
  // below-diagonal blocks either pass the admissibility gate whole (maximal
  // blocks — the recursion never splits an admissible range), stay dense
  // when a side is too small to ever pay for a factor, or split their larger
  // side and recurse. Near tiles are simply the ones no candidate covers.
  const auto visit = [&](const auto& self, std::size_t rb, std::size_t re, std::size_t cb,
                         std::size_t ce) -> void {
    if (rb == cb) {  // diagonal square (re == ce)
      if (re - rb <= 1) return;
      const std::size_t mid = rb + (re - rb) / 2;
      self(self, rb, mid, rb, mid);
      self(self, mid, re, rb, mid);
      self(self, mid, re, mid, re);
      return;
    }
    if (dofs_in(rb, re) < compression.min_block || dofs_in(cb, ce) < compression.min_block) {
      return;  // dense: no subrange can reach min_block either
    }
    const TileRowCluster rows = merged_geometry(clusters, rb, re);
    const TileRowCluster cols = merged_geometry(clusters, cb, ce);
    if (clusters_admissible(rows, cols)) {
      partition.candidates.push_back({rb, re, cb, ce});
      return;
    }
    if (re - rb <= 1 && ce - cb <= 1) return;  // single near tile
    if (re - rb >= ce - cb) {
      const std::size_t mid = rb + (re - rb) / 2;
      self(self, rb, mid, cb, ce);
      self(self, mid, re, cb, ce);
    } else {
      const std::size_t mid = cb + (ce - cb) / 2;
      self(self, rb, re, cb, mid);
      self(self, rb, re, mid, ce);
    }
  };
  if (layout.tile_rows() > 0) visit(visit, 0, layout.tile_rows(), 0, layout.tile_rows());
  return partition;
}

namespace {

/// ACA of one candidate block, sampling matrix rows/columns through the
/// integrator's batched entry point. A matrix entry (r, c) of the Galerkin
/// system is sum over elements e incident to r and f incident to c of
/// R^{e f}[local(r in e)][local(c in f)]; a column sample fixes one source
/// element f at a time and batches it against every element supporting the
/// block's rows, and a row sample fixes a row-side source and batches it
/// against the column-side elements, reading the blocks transposed — the
/// block is admissible, where Galerkin reciprocity holds far below the ACA
/// tolerance (see kTransposeSeparationRatio).
Attempt run_aca(const FarBlock& fb, const BemModel& model,
                const std::vector<std::vector<Incidence>>& incidence,
                const std::vector<TileRowCluster>& clusters, const Integrator& integrator,
                const la::TileLayout& layout, const la::CompressionConfig& compression,
                CongruenceCache* cache, std::span<const ElementFrame> frames) {
  const auto& elements = model.elements();
  const std::size_t r0 = layout.row_begin(fb.row_tile_begin);
  const std::size_t r1 = layout.row_end(fb.row_tile_end - 1);
  const std::size_t c0 = layout.row_begin(fb.col_tile_begin);
  const std::size_t c1 = layout.row_end(fb.col_tile_end - 1);

  const std::vector<std::size_t> row_elems =
      merged_elements(clusters, fb.row_tile_begin, fb.row_tile_end);
  const std::vector<std::size_t> col_elems =
      merged_elements(clusters, fb.col_tile_begin, fb.col_tile_end);

  // Element id -> batch slot, for scattering batched blocks into entries.
  std::vector<std::size_t> row_slot(model.element_count(), kNone);
  std::vector<std::size_t> col_slot(model.element_count(), kNone);
  std::vector<const BemElement*> row_fields(row_elems.size());
  std::vector<const BemElement*> col_fields(col_elems.size());
  for (std::size_t k = 0; k < row_elems.size(); ++k) {
    row_slot[row_elems[k]] = k;
    row_fields[k] = &elements[row_elems[k]];
  }
  for (std::size_t k = 0; k < col_elems.size(); ++k) {
    col_slot[col_elems[k]] = k;
    col_fields[k] = &elements[col_elems[k]];
  }
  std::vector<LocalMatrix> row_blocks(row_elems.size());
  std::vector<LocalMatrix> col_blocks(col_elems.size());
  std::vector<CanonicalPairSignature> keys;

  Attempt attempt;

  // Blocks of one source element against a cluster's field elements, keyed
  // from the frames when a cache is given.
  const auto sample_blocks = [&](std::size_t source, const std::vector<std::size_t>& field_ids,
                                 const std::vector<const BemElement*>& fields,
                                 LocalMatrix* out) {
    if (cache == nullptr) {
      integrator.element_pair_batch(elements[source], fields, out);
    } else {
      keys.resize(field_ids.size());
      for (std::size_t k = 0; k < field_ids.size(); ++k) {
        keys[k] = make_canonical_pair_signature(frames[field_ids[k]], frames[source]);
      }
      integrator.element_pair_batch(elements[source], fields, keys, out, *cache,
                                    &attempt.pairs_replayed);
    }
    attempt.pairs_sampled += fields.size();
  };

  // Column sample A(:, c): every source element f supporting DoF c, batched
  // against the row-side field elements; out[k] accumulates over f.
  const auto sample_col = [&](std::size_t col, double* out) {
    std::fill(out, out + (r1 - r0), 0.0);
    for (const Incidence& src : incidence[c0 + col]) {
      sample_blocks(src.element, row_elems, row_fields, row_blocks.data());
      for (std::size_t r = r0; r < r1; ++r) {
        double entry = 0.0;
        for (const Incidence& fld : incidence[r]) {
          entry += row_blocks[row_slot[fld.element]].value[fld.local][src.local];
        }
        out[r - r0] += entry;
      }
    }
  };
  // Row sample A(r, :): same batching with the roles flipped; the batched
  // blocks are R^{col-element, row-element}, read transposed.
  const auto sample_row = [&](std::size_t row, double* out) {
    std::fill(out, out + (c1 - c0), 0.0);
    for (const Incidence& src : incidence[r0 + row]) {
      sample_blocks(src.element, col_elems, col_fields, col_blocks.data());
      for (std::size_t c = c0; c < c1; ++c) {
        double entry = 0.0;
        for (const Incidence& fld : incidence[c]) {
          entry += col_blocks[col_slot[fld.element]].value[fld.local][src.local];
        }
        out[c - c0] += entry;
      }
    }
  };

  // Rank budget: never sample past the profitable ceiling. Each rank costs
  // (rows + cols) stored doubles and O(rank * elements) sampled pair
  // integrations, so a factor must undercut *half* the dense bytes it
  // replaces to be worth either bill; blocks that cannot converge within
  // that budget — long thin clusters at modest separation — report
  // !converged after a bounded sampling spend and split (their children
  // usually fall below min_block and stay dense).
  const std::size_t covered_tiles =
      (fb.row_tile_end - fb.row_tile_begin) * (fb.col_tile_end - fb.col_tile_begin);
  const std::size_t covered_bytes = covered_tiles * layout.tile_bytes();
  const std::size_t profitable_rank =
      covered_bytes / 2 / (((r1 - r0) + (c1 - c0)) * sizeof(double));
  // Demand real headroom, not just a positive budget: blocks straddling the
  // admissibility gate carry ranks in the 20-35 band (measured on uniform
  // and elongated bench grids), so a budget below ~1.5x that band is a coin
  // flip whose sampling bill rivals the pair integrations it could skip.
  // Such blocks — and every child a split would produce, whose budget only
  // shrinks — are cheapest left dense without sampling a single entry.
  if (profitable_rank < compression.min_rank_budget) return attempt;  // cannot pay off

  // The block tolerance is tightened by a safety margin below the
  // user-facing epsilon: ACA's Frobenius stopping estimate is itself an
  // approximation, and entries feed a solve whose conditioning amplifies
  // block errors slightly. The margin keeps the end-to-end parity within
  // the configured epsilon.
  la::AcaOptions options;
  options.epsilon = 0.1 * compression.epsilon;
  options.max_rank = std::min(compression.max_rank, profitable_rank);
  la::AcaResult aca = la::adaptive_cross(r1 - r0, c1 - c0, sample_row, sample_col, options);

  const std::size_t factor_bytes = aca.rank * ((r1 - r0) + (c1 - c0)) * sizeof(double);
  if (aca.converged && 2 * factor_bytes <= covered_bytes) {
    attempt.accepted = true;
    attempt.block.row_begin = r0;
    attempt.block.row_end = r1;
    attempt.block.col_begin = c0;
    attempt.block.col_end = c1;
    attempt.block.rank = aca.rank;
    attempt.block.u = std::move(aca.u);
    attempt.block.v = std::move(aca.v);
  }
  attempt.converged = aca.converged;
  return attempt;
}

/// Halve `fb`'s larger tile side; children below min_block DoFs fall back to
/// dense (dropped). Admissibility is inherited from the parent — shrinking a
/// cluster can only grow its box separation.
void split_block(const FarBlock& fb, const la::TileLayout& layout,
                 const la::CompressionConfig& compression, std::vector<FarBlock>* out) {
  const std::size_t row_tiles = fb.row_tile_end - fb.row_tile_begin;
  const std::size_t col_tiles = fb.col_tile_end - fb.col_tile_begin;
  if (row_tiles <= 1 && col_tiles <= 1) return;  // single tile: stays dense

  std::array<FarBlock, 2> children{fb, fb};
  if (row_tiles >= col_tiles) {
    const std::size_t mid = fb.row_tile_begin + row_tiles / 2;
    children[0].row_tile_end = mid;
    children[1].row_tile_begin = mid;
  } else {
    const std::size_t mid = fb.col_tile_begin + col_tiles / 2;
    children[0].col_tile_end = mid;
    children[1].col_tile_begin = mid;
  }
  for (const FarBlock& child : children) {
    const std::size_t rows =
        layout.row_end(child.row_tile_end - 1) - layout.row_begin(child.row_tile_begin);
    const std::size_t cols =
        layout.row_end(child.col_tile_end - 1) - layout.row_begin(child.col_tile_begin);
    if (rows >= compression.min_block && cols >= compression.min_block) out->push_back(child);
  }
}

}  // namespace

void build_far_field(la::CompressedTileStore& store, const BemModel& model, BasisKind basis,
                     const Integrator& integrator, const FarFieldPartition& partition,
                     par::ThreadPool* pool, FarFieldStats& stats,
                     const la::Permutation* ordering, CongruenceCache* cache) {
  const la::TileLayout& layout = store.layout();
  const la::CompressionConfig& compression = store.config().compression;
  EBEM_EXPECT(compression.enabled(), "build_far_field requires a compression-enabled store");
  EBEM_EXPECT(partition.clusters.size() == layout.tile_rows(),
              "partition does not match the store's tile layout");

  const std::vector<std::vector<Incidence>> incidence = build_incidence(model, basis, ordering);
  const std::vector<ElementFrame> frames =
      cache == nullptr ? std::vector<ElementFrame>{}
                       : make_element_frames(model.elements(), cache->quantum());

  // Wave loop: try every candidate (in parallel — each attempt touches only
  // its own buffers and results slot), install the accepted factors serially
  // in candidate order (deterministic content regardless of thread timing),
  // and queue the splits of rank-budget failures for the next wave. Blocks
  // that converge but would not undercut their dense tiles stay dense —
  // splitting cannot improve them (child ranks barely drop while the row/col
  // spans halve, so the per-tile factor price goes up, not down).
  std::vector<FarBlock> wave = partition.candidates;
  while (!wave.empty()) {
    std::vector<Attempt> attempts(wave.size());
    const auto run = [&](std::size_t k) {
      attempts[k] = run_aca(wave[k], model, incidence, partition.clusters, integrator, layout,
                            compression, cache, frames);
    };
    if (pool != nullptr && pool->num_threads() > 1 && wave.size() > 1) {
      par::parallel_for(*pool, wave.size(), par::Schedule::dynamic(1), run);
    } else {
      for (std::size_t k = 0; k < wave.size(); ++k) run(k);
    }

    std::vector<FarBlock> next;
    for (std::size_t k = 0; k < wave.size(); ++k) {
      Attempt& attempt = attempts[k];
      stats.pairs_sampled += attempt.pairs_sampled;
      stats.pairs_replayed += attempt.pairs_replayed;
      if (attempt.accepted) {
        store.install(std::move(attempt.block));
      } else if (!attempt.converged) {
        split_block(wave[k], layout, compression, &next);
      }
    }
    wave = std::move(next);
  }
}

}  // namespace ebem::bem
