// The geometric DoF ordering layer: la::Permutation unit semantics, RCB
// cluster-tree invariants (leaves partition the DoF set and coincide with
// tile rows, boxes contain their members), identity-permutation bitwise
// parity with the unordered solve paths, and end-to-end ordered-vs-unordered
// analysis parity on uniform and graded grids (ordering with epsilon == 0
// stores the same dense matrix under relabeled rows, so results must agree
// to solver noise, not to a compression tolerance).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/bem/assembly.hpp"
#include "src/bem/clustering.hpp"
#include "src/bem/solver.hpp"
#include "src/common/error.hpp"
#include "src/common/phase_report.hpp"
#include "src/engine/counters.hpp"
#include "src/engine/engine.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/la/cholesky.hpp"
#include "src/la/permutation.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem {
namespace {

bem::BemModel uniform_grid_model(std::size_t cells, double side) {
  geom::RectGridSpec spec;
  spec.length_x = side;
  spec.length_y = side;
  spec.cells_x = cells;
  spec.cells_y = cells;
  return bem::BemModel(geom::Mesh::build(geom::make_rect_grid(spec)),
                       soil::LayeredSoil::uniform(0.016));
}

bem::BemModel graded_grid_model(std::size_t cells, double side, double grading) {
  geom::GradedRectGridSpec spec;
  spec.length_x = side;
  spec.length_y = side;
  spec.cells_x = cells;
  spec.cells_y = cells;
  spec.grading = grading;
  return bem::BemModel(geom::Mesh::build(geom::make_graded_rect_grid(spec)),
                       soil::LayeredSoil::uniform(0.016));
}

/// A deterministic non-trivial permutation of [0, n): bit-reversal-flavored
/// shuffle (multiply by an odd constant mod n would not be a bijection for
/// every n; swapping strided positions is).
std::vector<std::size_t> shuffled_map(std::size_t n) {
  std::vector<std::size_t> map(n);
  std::iota(map.begin(), map.end(), std::size_t{0});
  for (std::size_t i = 0; i + 1 < n; i += 2) std::swap(map[i], map[i + 1]);
  std::rotate(map.begin(), map.begin() + n / 3, map.end());
  return map;
}

// ---------------------------------------------------------------------------
// la::Permutation unit semantics
// ---------------------------------------------------------------------------

TEST(Permutation, IdentityMapsEveryIndexToItself) {
  const la::Permutation identity = la::Permutation::identity(7);
  EXPECT_EQ(identity.size(), 7u);
  EXPECT_TRUE(identity.is_identity());
  for (std::size_t i = 0; i < identity.size(); ++i) {
    EXPECT_EQ(identity.to_internal(i), i);
    EXPECT_EQ(identity.to_external(i), i);
  }
  const std::vector<double> v = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0};
  EXPECT_EQ(identity.gather(v), v);
  EXPECT_EQ(identity.scatter(v), v);
}

TEST(Permutation, RejectsNonBijections) {
  EXPECT_THROW(la::Permutation({0, 0, 1}), ebem::InvalidArgument);  // duplicate
  EXPECT_THROW(la::Permutation({0, 3, 1}), ebem::InvalidArgument);  // out of range
}

TEST(Permutation, GatherFollowsTheInternalOrder) {
  // external -> internal: 0->2, 1->0, 2->1. Internal slot i must read the
  // external value whose DoF maps there.
  const la::Permutation perm({2, 0, 1});
  EXPECT_FALSE(perm.is_identity());
  const std::vector<double> external = {10.0, 20.0, 30.0};
  const std::vector<double> internal = perm.gather(external);
  EXPECT_EQ(internal, (std::vector<double>{20.0, 30.0, 10.0}));
  EXPECT_EQ(perm.scatter(internal), external);
}

TEST(Permutation, GatherScatterRoundTripIsBitwise) {
  const std::size_t n = 97;  // odd size: exercises the unpaired tail
  const la::Permutation perm(shuffled_map(n));
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::sin(static_cast<double>(i) + 0.5);
  EXPECT_EQ(perm.scatter(perm.gather(v)), v);
  EXPECT_EQ(perm.gather(perm.scatter(v)), v);
}

TEST(Permutation, BlockGatherScatterRoundTripIsBitwise) {
  const std::size_t n = 33;
  const std::size_t num_rhs = 3;
  const la::Permutation perm(shuffled_map(n));
  std::vector<double> block(n * num_rhs);
  for (std::size_t i = 0; i < block.size(); ++i) block[i] = std::cos(static_cast<double>(i));
  const std::vector<double> gathered = perm.gather_block(block, num_rhs);
  EXPECT_EQ(perm.scatter_block(gathered, num_rhs), block);
  // Row-wise semantics: internal row i carries external row to_external(i).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < num_rhs; ++k) {
      EXPECT_EQ(gathered[i * num_rhs + k], block[perm.to_external(i) * num_rhs + k]);
    }
  }
}

TEST(Permutation, SizeMismatchThrows) {
  const la::Permutation perm(shuffled_map(8));
  const std::vector<double> wrong(7, 1.0);
  EXPECT_THROW((void)perm.gather(wrong), ebem::InvalidArgument);
  EXPECT_THROW((void)perm.scatter(wrong), ebem::InvalidArgument);
  EXPECT_THROW((void)perm.gather_block(wrong, 7), ebem::InvalidArgument);
}

// ---------------------------------------------------------------------------
// RCB cluster-tree invariants
// ---------------------------------------------------------------------------

class ClusteringGrids : public ::testing::TestWithParam<bool> {
 protected:
  [[nodiscard]] bem::BemModel model() const {
    return GetParam() ? graded_grid_model(9, 45.0, 2.0) : uniform_grid_model(9, 45.0);
  }
};

TEST_P(ClusteringGrids, LeavesAreExactlyTheTileRows) {
  const bem::BemModel model = this->model();
  const std::size_t tile = 16;
  const std::size_t n = model.dof_count(bem::BasisKind::kLinear);
  const bem::GeometricOrdering ordering =
      bem::geometric_ordering(model, bem::BasisKind::kLinear, tile);

  const std::size_t expected_leaves = (n + tile - 1) / tile;
  ASSERT_EQ(ordering.tree.leaves.size(), expected_leaves);
  EXPECT_EQ(ordering.stats.cluster_leaves, expected_leaves);
  EXPECT_GT(ordering.stats.tree_depth, 0u);

  // Each leaf covers exactly one la::TileLayout tile row, in order.
  for (std::size_t t = 0; t < expected_leaves; ++t) {
    const bem::ClusterNode& leaf = ordering.tree.nodes[ordering.tree.leaves[t]];
    EXPECT_TRUE(leaf.is_leaf());
    EXPECT_EQ(leaf.begin, t * tile);
    EXPECT_EQ(leaf.end, std::min(n, (t + 1) * tile));
  }
}

TEST_P(ClusteringGrids, TreePartitionsTheDofSetAndBoxesContainMembers) {
  const bem::BemModel model = this->model();
  const std::size_t n = model.dof_count(bem::BasisKind::kLinear);
  const bem::GeometricOrdering ordering =
      bem::geometric_ordering(model, bem::BasisKind::kLinear, 16);
  const std::vector<geom::Vec3> positions = bem::dof_positions(model, bem::BasisKind::kLinear);
  ASSERT_EQ(positions.size(), n);
  ASSERT_EQ(ordering.permutation.size(), n);

  ASSERT_FALSE(ordering.tree.nodes.empty());
  EXPECT_EQ(ordering.tree.nodes[0].begin, 0u);
  EXPECT_EQ(ordering.tree.nodes[0].end, n);

  for (std::size_t id = 0; id < ordering.tree.nodes.size(); ++id) {
    const bem::ClusterNode& node = ordering.tree.nodes[id];
    ASSERT_LT(node.begin, node.end);
    if (!node.is_leaf()) {
      // Children appear after the parent and split its range exactly.
      ASSERT_GT(node.left, id);
      ASSERT_GT(node.right, id);
      const bem::ClusterNode& left = ordering.tree.nodes[node.left];
      const bem::ClusterNode& right = ordering.tree.nodes[node.right];
      EXPECT_EQ(left.begin, node.begin);
      EXPECT_EQ(left.end, right.begin);
      EXPECT_EQ(right.end, node.end);
    }
    // The box bounds every member DoF's support point.
    for (std::size_t i = node.begin; i < node.end; ++i) {
      const geom::Vec3& p = positions[ordering.permutation.to_external(i)];
      EXPECT_GE(p.x, node.box_min.x);
      EXPECT_LE(p.x, node.box_max.x);
      EXPECT_GE(p.y, node.box_min.y);
      EXPECT_LE(p.y, node.box_max.y);
      EXPECT_GE(p.z, node.box_min.z);
      EXPECT_LE(p.z, node.box_max.z);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(UniformAndGraded, ClusteringGrids, ::testing::Values(false, true),
                         [](const auto& info) { return info.param ? "graded" : "uniform"; });

TEST(Clustering, OrderingIsDeterministicAcrossCalls) {
  const bem::BemModel model = uniform_grid_model(8, 40.0);
  const bem::GeometricOrdering a = bem::geometric_ordering(model, bem::BasisKind::kLinear, 32);
  const bem::GeometricOrdering b = bem::geometric_ordering(model, bem::BasisKind::kLinear, 32);
  EXPECT_EQ(a.permutation, b.permutation);
  EXPECT_EQ(a.tree.nodes.size(), b.tree.nodes.size());
}

TEST(Clustering, ConstantBasisSupportsAreElementMidpoints) {
  const bem::BemModel model = uniform_grid_model(4, 20.0);
  const std::vector<geom::Vec3> positions =
      bem::dof_positions(model, bem::BasisKind::kConstant);
  ASSERT_EQ(positions.size(), model.dof_count(bem::BasisKind::kConstant));
  for (std::size_t e = 0; e < model.element_count(); ++e) {
    const bem::BemElement& element = model.elements()[e];
    const geom::Vec3 mid = 0.5 * (element.a + element.b);
    const std::size_t dof = model.global_dof(bem::BasisKind::kConstant, e, 0);
    EXPECT_DOUBLE_EQ(positions[dof].x, mid.x);
    EXPECT_DOUBLE_EQ(positions[dof].y, mid.y);
    EXPECT_DOUBLE_EQ(positions[dof].z, mid.z);
  }
}

// ---------------------------------------------------------------------------
// Identity-permutation bitwise parity with the unordered paths
// ---------------------------------------------------------------------------

TEST(Ordering, IdentityOrderingSolvesBitwiseLikeUnordered) {
  const bem::BemModel model = uniform_grid_model(6, 30.0);
  const bem::AssemblyResult assembled = bem::assemble(model);
  const std::vector<double> plain = bem::solve(assembled.matrix, assembled.rhs);

  const la::Permutation identity = la::Permutation::identity(assembled.rhs.size());
  bem::SolveExecution execution;
  execution.ordering = &identity;
  const std::vector<double> ordered =
      bem::solve(assembled.matrix, assembled.rhs, execution);
  ASSERT_EQ(ordered.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) EXPECT_EQ(ordered[i], plain[i]);
}

TEST(Ordering, FactoredSystemIdentityOrderingIsBitwise) {
  const bem::BemModel model = uniform_grid_model(5, 25.0);
  const bem::AssemblyResult assembled = bem::assemble(model);
  const auto identity =
      std::make_shared<const la::Permutation>(la::Permutation::identity(assembled.rhs.size()));

  const engine::FactoredSystem plain(la::Cholesky(assembled.matrix), assembled.rhs, nullptr,
                                     nullptr);
  const engine::FactoredSystem ordered(la::Cholesky(assembled.matrix), assembled.rhs, nullptr,
                                       nullptr, identity);
  EXPECT_EQ(ordered.solve(), plain.solve());

  const std::size_t n = assembled.rhs.size();
  std::vector<double> block(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    block[i * 2] = assembled.rhs[i];
    block[i * 2 + 1] = 0.5 * assembled.rhs[i] + 1e-3;
  }
  EXPECT_EQ(ordered.solve_many(block, 2), plain.solve_many(block, 2));
}

// ---------------------------------------------------------------------------
// End-to-end ordered-vs-unordered analysis parity
// ---------------------------------------------------------------------------

/// Ordered analysis with epsilon == 0: same dense matrix under relabeled
/// rows. Cholesky pivots in a different order, so parity is to solver
/// round-off (1e-12), not bitwise.
void expect_ordered_analysis_parity(const bem::BemModel& model) {
  engine::Engine plain_engine;
  const bem::AnalysisResult plain = plain_engine.analyze(model);

  engine::ExecutionConfig config;
  config.storage.tile_size = 32;
  config.storage.compression.ordering = la::DofOrdering::kGeometric;
  engine::Engine ordered_engine(config);
  PhaseReport report;
  const bem::AnalysisResult ordered = ordered_engine.analyze(model, {}, &report);

  ASSERT_EQ(ordered.sigma.size(), plain.sigma.size());
  const double r_ref = plain.equivalent_resistance;
  EXPECT_NEAR(ordered.equivalent_resistance, r_ref, 1e-12 * std::abs(r_ref));
  double sigma_scale = 0.0;
  for (const double s : plain.sigma) sigma_scale = std::max(sigma_scale, std::abs(s));
  for (std::size_t i = 0; i < plain.sigma.size(); ++i) {
    EXPECT_NEAR(ordered.sigma[i], plain.sigma[i], 1e-12 * sigma_scale);
  }

  // The ordering evidence must land on the run report.
  const std::size_t n = model.dof_count(bem::BasisKind::kLinear);
  EXPECT_EQ(report.counter(engine::kOrderingsCounter), 1.0);
  EXPECT_EQ(report.counter(engine::kOrderingLeavesCounter),
            static_cast<double>((n + 31) / 32));
  EXPECT_EQ(ordered.ordering_stats.cluster_leaves, (n + 31) / 32);
}

TEST(Ordering, OrderedAnalysisMatchesUnorderedOnUniformGrid) {
  expect_ordered_analysis_parity(uniform_grid_model(8, 40.0));
}

TEST(Ordering, OrderedAnalysisMatchesUnorderedOnGradedGrid) {
  expect_ordered_analysis_parity(graded_grid_model(8, 40.0, 2.5));
}

TEST(Ordering, OrderedFactorHandleSpeaksExternalOrder) {
  const bem::BemModel model = uniform_grid_model(7, 35.0);

  engine::Engine plain_engine;
  const engine::FactoredSystem plain = plain_engine.factor(model);

  engine::ExecutionConfig config;
  config.storage.tile_size = 16;
  config.storage.compression.ordering = la::DofOrdering::kGeometric;
  engine::Engine ordered_engine(config);
  const engine::FactoredSystem ordered = ordered_engine.factor(model);

  // rhs() is assembled in external order on both handles.
  ASSERT_EQ(ordered.rhs().size(), plain.rhs().size());
  for (std::size_t i = 0; i < plain.rhs().size(); ++i) {
    EXPECT_NEAR(ordered.rhs()[i], plain.rhs()[i], 1e-14 * std::abs(plain.rhs()[i]) + 1e-300);
  }

  const std::vector<double> x_plain = plain.solve();
  const std::vector<double> x_ordered = ordered.solve();
  double scale = 0.0;
  for (const double x : x_plain) scale = std::max(scale, std::abs(x));
  for (std::size_t i = 0; i < x_plain.size(); ++i) {
    EXPECT_NEAR(x_ordered[i], x_plain[i], 1e-12 * scale);
  }
}

TEST(Ordering, AssemblyCarriesTheOrderingOnlyWhenAsked) {
  const bem::BemModel model = uniform_grid_model(6, 30.0);

  bem::CongruenceCache plain_cache(model.soil());
  const bem::AssemblyResult plain = bem::assemble(model, {}, {.cache = &plain_cache});
  EXPECT_EQ(plain.ordering, nullptr);
  EXPECT_EQ(plain.ordering_stats.cluster_leaves, 0u);

  la::StorageConfig storage;
  storage.tile_size = 16;
  storage.compression.ordering = la::DofOrdering::kGeometric;
  bem::CongruenceCache ordered_cache(model.soil());
  const bem::AssemblyResult ordered =
      bem::assemble(model, {}, {.storage = storage, .cache = &ordered_cache});
  ASSERT_NE(ordered.ordering, nullptr);
  EXPECT_EQ(ordered.ordering->size(), ordered.rhs.size());
  EXPECT_FALSE(ordered.ordering->is_identity());
  EXPECT_GT(ordered.ordering_stats.cluster_leaves, 0u);

  // Same physics, relabeled rows: the ordered matrix holds the plain
  // matrix's entries at permuted positions.
  const la::Permutation& perm = *ordered.ordering;
  const std::size_t n = plain.rhs.size();
  for (std::size_t i = 0; i < n; i += 7) {
    for (std::size_t j = 0; j <= i; j += 5) {
      EXPECT_DOUBLE_EQ(ordered.matrix(perm.to_internal(i), perm.to_internal(j)),
                       plain.matrix(i, j));
    }
  }
}

}  // namespace
}  // namespace ebem
