// Far-field partition and ACA builder: cluster/partition invariants, the
// separation-gate-vs-kernel-decay property tests (uniform AND graded grids),
// and end-to-end compressed-vs-dense assembly/solve parity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <set>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/bem/assembly.hpp"
#include "src/bem/far_field.hpp"
#include "src/bem/pair_signature.hpp"
#include "src/engine/engine.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/la/compressed_tile_store.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::bem {
namespace {

BemModel uniform_grid_model(std::size_t cells, double side) {
  geom::RectGridSpec spec;
  spec.length_x = side;
  spec.length_y = side;
  spec.cells_x = cells;
  spec.cells_y = cells;
  return BemModel(geom::Mesh::build(geom::make_rect_grid(spec)),
                  soil::LayeredSoil::uniform(0.016));
}

BemModel graded_grid_model(std::size_t cells, double side, double grading) {
  geom::GradedRectGridSpec spec;
  spec.length_x = side;
  spec.length_y = side;
  spec.cells_x = cells;
  spec.cells_y = cells;
  spec.grading = grading;
  return BemModel(geom::Mesh::build(geom::make_graded_rect_grid(spec)),
                  soil::LayeredSoil::uniform(0.016));
}

/// Elongated (trench-style) grid: tile-row clusters are compact boxes, so
/// the far field is genuinely low rank under the in-place DoF order — the
/// geometry the compressed backend is built for.
BemModel long_grid_model(std::size_t cells_x, std::size_t cells_y) {
  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells_x);
  spec.length_y = 5.0 * static_cast<double>(cells_y);
  spec.cells_x = cells_x;
  spec.cells_y = cells_y;
  return BemModel(geom::Mesh::build(geom::make_rect_grid(spec)),
                  soil::LayeredSoil::uniform(0.016));
}

geom::Vec3 midpoint(const BemElement& e) { return 0.5 * (e.a + e.b); }

/// Relative transpose-reciprocity error of one ordered pair:
/// || R^{ef} - (R^{fe})^T ||_max / || R^{ef} ||_max.
double transpose_error(const Integrator& integrator, const BemElement& e, const BemElement& f,
                       std::size_t locals) {
  const LocalMatrix ef = integrator.element_pair(e, f);
  const LocalMatrix fe = integrator.element_pair(f, e);
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t p = 0; p < locals; ++p) {
    for (std::size_t q = 0; q < locals; ++q) {
      err = std::max(err, std::abs(ef.value[p][q] - fe.value[q][p]));
      scale = std::max(scale, std::abs(ef.value[p][q]));
    }
  }
  return scale > 0.0 ? err / scale : 0.0;
}

TEST(FarField, BoxDistanceBasics) {
  const geom::Vec3 a_min{0.0, 0.0, 0.0};
  const geom::Vec3 a_max{1.0, 1.0, 1.0};
  // Overlap (even partial) is distance zero.
  EXPECT_EQ(box_distance(a_min, a_max, {0.5, 0.5, 0.5}, {2.0, 2.0, 2.0}), 0.0);
  EXPECT_EQ(box_distance(a_min, a_max, a_min, a_max), 0.0);
  // Pure axis gap.
  EXPECT_DOUBLE_EQ(box_distance(a_min, a_max, {3.0, 0.0, 0.0}, {4.0, 1.0, 1.0}), 2.0);
  // Diagonal gap combines per-axis gaps Euclidean-style.
  EXPECT_DOUBLE_EQ(box_distance(a_min, a_max, {4.0, 5.0, 1.0}, {5.0, 6.0, 2.0}), 5.0);
  // Symmetric in its arguments.
  EXPECT_DOUBLE_EQ(box_distance({3.0, 0.0, 0.0}, {4.0, 1.0, 1.0}, a_min, a_max), 2.0);
}

TEST(FarField, TileRowClustersCoverEveryElementSupport) {
  const BemModel model = uniform_grid_model(12, 40.0);
  const BasisKind basis = BasisKind::kLinear;
  const la::TileLayout layout(model.dof_count(basis), 16);
  const std::vector<TileRowCluster> clusters = build_tile_row_clusters(model, basis, layout);
  ASSERT_EQ(clusters.size(), layout.tile_rows());

  for (const TileRowCluster& cluster : clusters) {
    ASSERT_FALSE(cluster.elements.empty());
    EXPECT_TRUE(std::is_sorted(cluster.elements.begin(), cluster.elements.end()));
    EXPECT_EQ(std::adjacent_find(cluster.elements.begin(), cluster.elements.end()),
              cluster.elements.end());
    double longest = 0.0;
    for (const std::size_t e : cluster.elements) {
      const BemElement& element = model.elements()[e];
      longest = std::max(longest, element.length);
      for (const geom::Vec3 p : {element.a, element.b}) {
        EXPECT_LE(cluster.box_min.x, p.x);
        EXPECT_LE(cluster.box_min.y, p.y);
        EXPECT_LE(cluster.box_min.z, p.z);
        EXPECT_GE(cluster.box_max.x, p.x);
        EXPECT_GE(cluster.box_max.y, p.y);
        EXPECT_GE(cluster.box_max.z, p.z);
      }
    }
    EXPECT_DOUBLE_EQ(cluster.max_element_length, longest);
  }

  // Every element belongs to the cluster of every tile row its DoFs touch.
  const std::size_t locals = model.local_dof_count(basis);
  for (std::size_t e = 0; e < model.element_count(); ++e) {
    for (std::size_t l = 0; l < locals; ++l) {
      const std::size_t row = layout.tile_of(model.global_dof(basis, e, l));
      const std::vector<std::size_t>& members = clusters[row].elements;
      EXPECT_TRUE(std::binary_search(members.begin(), members.end(), e))
          << "element " << e << " missing from cluster of tile row " << row;
    }
  }
}

TEST(FarField, PartitionBlocksAreMaximalValidAndDisjoint) {
  const BemModel model = uniform_grid_model(12, 40.0);
  const BasisKind basis = BasisKind::kLinear;
  const la::TileLayout layout(model.dof_count(basis), 16);
  la::CompressionConfig compression{.epsilon = 1e-8, .min_block = 16, .max_rank = 64};
  const FarFieldPartition partition = partition_far_field(model, basis, layout, compression);
  ASSERT_EQ(partition.clusters.size(), layout.tile_rows());
  // A 40 m grid with ~3.3 m elements has plenty of >= 10 m separations.
  ASSERT_FALSE(partition.candidates.empty());

  std::set<std::size_t> covered;
  for (const FarBlock& block : partition.candidates) {
    // Valid strictly-below-diagonal tile ranges.
    ASSERT_LT(block.row_tile_begin, block.row_tile_end);
    ASSERT_LT(block.col_tile_begin, block.col_tile_end);
    ASSERT_LE(block.row_tile_end, layout.tile_rows());
    ASSERT_LE(block.col_tile_end, block.row_tile_begin);
    // Both sides carry at least min_block DoFs.
    EXPECT_GE(layout.row_end(block.row_tile_end - 1) - layout.row_begin(block.row_tile_begin),
              compression.min_block);
    EXPECT_GE(layout.row_end(block.col_tile_end - 1) - layout.row_begin(block.col_tile_begin),
              compression.min_block);
    // Pairwise tile-disjoint.
    for (std::size_t ti = block.row_tile_begin; ti < block.row_tile_end; ++ti) {
      for (std::size_t tj = block.col_tile_begin; tj < block.col_tile_end; ++tj) {
        EXPECT_TRUE(covered.insert(layout.tile_index(ti, tj)).second)
            << "tile (" << ti << ", " << tj << ") covered twice";
      }
    }
    // The merged cluster ranges pass the admissibility gate.
    const auto merge = [&](std::size_t begin, std::size_t end) {
      TileRowCluster merged = partition.clusters[begin];
      for (std::size_t t = begin + 1; t < end; ++t) {
        const TileRowCluster& c = partition.clusters[t];
        merged.box_min = {std::min(merged.box_min.x, c.box_min.x),
                          std::min(merged.box_min.y, c.box_min.y),
                          std::min(merged.box_min.z, c.box_min.z)};
        merged.box_max = {std::max(merged.box_max.x, c.box_max.x),
                          std::max(merged.box_max.y, c.box_max.y),
                          std::max(merged.box_max.z, c.box_max.z)};
        merged.max_element_length = std::max(merged.max_element_length, c.max_element_length);
      }
      return merged;
    };
    const TileRowCluster rows = merge(block.row_tile_begin, block.row_tile_end);
    const TileRowCluster cols = merge(block.col_tile_begin, block.col_tile_end);
    EXPECT_TRUE(clusters_admissible(rows, cols));
    // Admissibility of the block implies the per-pair separation gate:
    // every crossing element pair sits beyond the transpose-replay ratio.
    for (std::size_t ti = block.row_tile_begin; ti < block.row_tile_end; ++ti) {
      for (const std::size_t e : partition.clusters[ti].elements) {
        for (std::size_t tj = block.col_tile_begin; tj < block.col_tile_end; ++tj) {
          for (const std::size_t f : partition.clusters[tj].elements) {
            const BemElement& re = model.elements()[e];
            const BemElement& ce = model.elements()[f];
            const double separation = geom::distance(midpoint(re), midpoint(ce));
            EXPECT_TRUE(transpose_separated(separation, std::max(re.length, ce.length)));
          }
        }
      }
    }
  }
}

/// The gate/decay property behind both the congruence cache's transposed
/// replays and H-matrix admissibility: wherever the quantized separation
/// predicate fires, the kernel's measured transpose-reciprocity error is at
/// machine-precision level; the large reciprocity violations all live on
/// pairs the gate rejects. Exhaustive over all ordered pairs of the model.
void check_gate_matches_decay(const BemModel& model) {
  const AssemblyOptions options;
  const soil::ImageKernel kernel(model.soil(), options.series);
  const Integrator integrator(kernel, options.integrator);
  const std::size_t locals = model.local_dof_count(options.integrator.basis);

  double max_separated = 0.0;
  double max_near = 0.0;
  std::size_t separated_pairs = 0;
  for (std::size_t e = 0; e < model.element_count(); ++e) {
    for (std::size_t f = 0; f < e; ++f) {
      const BemElement& a = model.elements()[e];
      const BemElement& b = model.elements()[f];
      const double separation = geom::distance(midpoint(a), midpoint(b));
      const double error = transpose_error(integrator, a, b, locals);
      if (transpose_separated(separation, std::max(a.length, b.length))) {
        ++separated_pairs;
        max_separated = std::max(max_separated, error);
      } else {
        max_near = std::max(max_near, error);
      }
    }
  }
  ASSERT_GT(separated_pairs, 0u);
  // Beyond the gate, reciprocity holds to near machine precision...
  EXPECT_LE(max_separated, 1e-10);
  // ...while inside it the quadrature breaks reciprocity by orders of
  // magnitude more (adjacent pairs sit around 1e-4 relative).
  EXPECT_GT(max_near, 1e-6);
  EXPECT_GT(max_near, 1e3 * max_separated);
}

TEST(FarFieldProperty, SeparationGateMatchesKernelDecayOnUniformGrid) {
  check_gate_matches_decay(uniform_grid_model(6, 20.0));
}

TEST(FarFieldProperty, SeparationGateMatchesKernelDecayOnGradedGrid) {
  // Grading 3:1 shrinks perimeter elements, so the gate must keep working
  // with heterogeneous element lengths (the max of the pair governs).
  check_gate_matches_decay(graded_grid_model(6, 20.0, 3.0));
}

struct AssembledPair {
  AssemblyResult dense;
  AssemblyResult compressed;
};

AssembledPair assemble_both(const BemModel& model, const AssemblyExecution& compressed_execution) {
  const AssemblyOptions options;
  AssemblyExecution dense_execution = compressed_execution;
  dense_execution.storage.compression = {};
  return {assemble(model, options, dense_execution),
          assemble(model, options, compressed_execution)};
}

AssemblyExecution compressed_execution() {
  AssemblyExecution execution;
  execution.storage.tile_size = 32;
  // min_rank_budget lowered to match the small 32-DoF tiles (the default is
  // tuned for 64-DoF production tiles).
  execution.storage.compression = {
      .epsilon = 1e-8, .min_block = 32, .max_rank = 64, .min_rank_budget = 8};
  return execution;
}

TEST(FarField, CompressedAssemblyMatchesDenseWithinEpsilon) {
  const BemModel model = long_grid_model(4, 60);
  const AssembledPair pair = assemble_both(model, compressed_execution());
  const std::size_t n = pair.dense.matrix.size();
  ASSERT_EQ(pair.compressed.matrix.size(), n);

  // Entry parity within the blockwise epsilon contract (global scale).
  double diff2 = 0.0;
  double norm2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double d = pair.dense.matrix.get(i, j);
      const double c = pair.compressed.matrix.get(i, j);
      diff2 += (d - c) * (d - c);
      norm2 += d * d;
    }
  }
  EXPECT_LE(std::sqrt(diff2), 1e-7 * std::sqrt(norm2));

  // The RHS integrates test functions only — compression must not touch it.
  ASSERT_EQ(pair.compressed.rhs.size(), pair.dense.rhs.size());
  for (std::size_t i = 0; i < pair.dense.rhs.size(); ++i) {
    EXPECT_DOUBLE_EQ(pair.compressed.rhs[i], pair.dense.rhs[i]);
  }

  // Compression actually happened and the accounting is coherent.
  const la::CompressionStats& stats = pair.compressed.compression;
  EXPECT_GE(stats.low_rank_blocks, 1u);
  EXPECT_GE(stats.low_rank_tiles, stats.low_rank_blocks);
  EXPECT_LT(stats.stored_bytes, stats.dense_bytes);
  EXPECT_GE(stats.rank_sum, stats.low_rank_blocks);
  const FarFieldStats& far = pair.compressed.far_field;
  EXPECT_GT(far.pairs_skipped, 0u);
  EXPECT_GT(far.pairs_sampled, 0u);
  EXPECT_EQ(far.pairs_near + far.pairs_skipped, pair.compressed.element_pairs);
  EXPECT_EQ(pair.compressed.element_pairs, pair.dense.element_pairs);
  // The dense run reports no compression.
  EXPECT_EQ(pair.dense.compression.low_rank_blocks, 0u);
  EXPECT_EQ(pair.dense.far_field.pairs_skipped, 0u);
}

TEST(FarField, ParallelFarFieldBuildIsDeterministic) {
  const BemModel model = long_grid_model(4, 60);
  const AssemblyOptions options;
  const AssemblyExecution serial = compressed_execution();
  AssemblyExecution parallel = serial;
  par::ThreadPool pool(4);
  parallel.pool = &pool;
  parallel.num_threads = 4;
  const AssemblyResult a = assemble(model, options, serial);
  const AssemblyResult b = assemble(model, options, parallel);
  // Factors are installed in candidate order regardless of worker count, so
  // the low-rank coverage is identical; the near-field scatter reorders
  // floating-point sums like plain parallel assembly does (same tolerance
  // as the dense parallel == sequential tests).
  ASSERT_EQ(a.matrix.size(), b.matrix.size());
  const std::vector<double> pa = a.matrix.packed();
  const std::vector<double> pb = b.matrix.packed();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_NEAR(pa[i], pb[i], 1e-12 * std::abs(pa[i]) + 1e-15) << "packed index " << i;
  }
  EXPECT_EQ(a.compression.low_rank_blocks, b.compression.low_rank_blocks);
  EXPECT_EQ(a.compression.rank_sum, b.compression.rank_sum);
  EXPECT_EQ(a.far_field.pairs_skipped, b.far_field.pairs_skipped);
}

TEST(FarField, CompressedAnalysisSolvesToDenseParity) {
  const BemModel model = long_grid_model(4, 60);
  const AnalysisOptions options;
  engine::ExecutionConfig compressed;
  compressed.use_congruence_cache = false;
  compressed.storage = compressed_execution().storage;
  engine::Engine compressed_engine(compressed);

  const AnalysisResult reference = analyze(model, options);
  const AnalysisResult result = compressed_engine.analyze(model, options);

  EXPECT_NEAR(result.equivalent_resistance, reference.equivalent_resistance,
              1e-7 * reference.equivalent_resistance);
  ASSERT_EQ(result.sigma.size(), reference.sigma.size());
  double sigma_scale = 0.0;
  for (const double s : reference.sigma) sigma_scale = std::max(sigma_scale, std::abs(s));
  for (std::size_t i = 0; i < reference.sigma.size(); ++i) {
    EXPECT_NEAR(result.sigma[i], reference.sigma[i], 1e-6 * sigma_scale);
  }
  // Compression counters ride through the analysis result.
  EXPECT_GE(result.compression.low_rank_blocks, 1u);
  EXPECT_GT(result.far_field.pairs_skipped, 0u);
  EXPECT_EQ(reference.compression.low_rank_blocks, 0u);
}

}  // namespace
}  // namespace ebem::bem
