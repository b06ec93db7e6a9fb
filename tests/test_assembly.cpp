// Global assembly: correctness vs a brute-force ordered-pair reference,
// parallel == sequential, SPD-ness, parallel modes and schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/bem/assembly.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/la/cholesky.hpp"
#include "src/la/dense_matrix.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::bem {
namespace {

BemModel grid_model(const soil::LayeredSoil& soil, std::size_t cells_x, std::size_t cells_y) {
  geom::RectGridSpec spec;
  spec.length_x = 10.0 * static_cast<double>(cells_x);
  spec.length_y = 10.0 * static_cast<double>(cells_y);
  spec.cells_x = cells_x;
  spec.cells_y = cells_y;
  spec.depth = 0.8;
  spec.radius = 0.006;
  return BemModel(geom::Mesh::build(geom::make_rect_grid(spec)), soil);
}

BemModel small_grid_model(const soil::LayeredSoil& soil) { return grid_model(soil, 2, 2); }

/// Every packed entry of `actual` within 1e-12 relative of `expected`.
void expect_packed_near(const la::SymMatrix& expected, const la::SymMatrix& actual) {
  const auto a = expected.packed();
  const auto b = actual.packed();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k], b[k], 1e-12 * std::abs(a[k]) + 1e-15) << "packed index " << k;
  }
}

/// Brute-force reference: assemble the FULL dense matrix from all M^2
/// ordered element pairs (no symmetry shortcut), then symmetrize.
la::DenseMatrix reference_full_matrix(const BemModel& model, const AssemblyOptions& options) {
  const soil::ImageKernel kernel(model.soil(), options.series);
  const Integrator integrator(kernel, options.integrator);
  const BasisKind basis = options.integrator.basis;
  const std::size_t n = model.dof_count(basis);
  const std::size_t locals = model.local_dof_count(basis);
  la::DenseMatrix full(n, n);
  for (std::size_t beta = 0; beta < model.element_count(); ++beta) {
    for (std::size_t alpha = 0; alpha < model.element_count(); ++alpha) {
      const LocalMatrix local =
          integrator.element_pair(model.elements()[beta], model.elements()[alpha]);
      for (std::size_t p = 0; p < locals; ++p) {
        for (std::size_t q = 0; q < locals; ++q) {
          full(model.global_dof(basis, beta, p), model.global_dof(basis, alpha, q)) +=
              local.value[p][q];
        }
      }
    }
  }
  // Symmetrize away the quadrature-level transpose error.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double v = 0.5 * (full(i, j) + full(j, i));
      full(i, j) = v;
      full(j, i) = v;
    }
  }
  return full;
}

TEST(Assembly, MatchesBruteForceReferenceLinearBasis) {
  // This pins down the subtle shared-node double-count in the triangular
  // scatter: any error there shows up immediately against the full matrix.
  const auto soil = soil::LayeredSoil::uniform(0.016);
  const BemModel model = small_grid_model(soil);
  AssemblyOptions options;
  const AssemblyResult result = assemble(model, options);
  const la::DenseMatrix reference = reference_full_matrix(model, options);
  const std::size_t n = model.dof_count(BasisKind::kLinear);
  ASSERT_EQ(result.matrix.size(), n);
  // Tolerance note: the assembled triangle uses each pair's (beta, alpha)
  // orientation for both halves, while the reference averages the two
  // orientations; the outer-Gauss/inner-analytic split makes those differ at
  // the quadrature level (~1e-5 relative). A scatter logic error (missing
  // transpose contribution, wrong double count) shows up at O(1).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(result.matrix(i, j), reference(i, j), 1e-4 * std::abs(reference(i, j)) + 1e-12)
          << i << "," << j;
    }
  }
}

TEST(Assembly, MatchesBruteForceReferenceConstantBasis) {
  const auto soil = soil::LayeredSoil::uniform(0.016);
  const BemModel model = small_grid_model(soil);
  AssemblyOptions options;
  options.integrator.basis = BasisKind::kConstant;
  const AssemblyResult result = assemble(model, options);
  const la::DenseMatrix reference = reference_full_matrix(model, options);
  for (std::size_t i = 0; i < result.matrix.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(result.matrix(i, j), reference(i, j),
                  1e-7 * std::abs(reference(i, j)) + 1e-12);
    }
  }
}

TEST(Assembly, MatchesBruteForceReferenceTwoLayer) {
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const BemModel model = small_grid_model(soil);
  AssemblyOptions options;
  options.series.tolerance = 1e-10;
  const AssemblyResult result = assemble(model, options);
  const la::DenseMatrix reference = reference_full_matrix(model, options);
  for (std::size_t i = 0; i < result.matrix.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      // Same tolerance rationale as the linear-basis reference test.
      EXPECT_NEAR(result.matrix(i, j), reference(i, j),
                  1e-4 * std::abs(reference(i, j)) + 1e-12);
    }
  }
}

TEST(Assembly, SystemIsPositiveDefinite) {
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const BemModel model = small_grid_model(soil);
  const AssemblyResult result = assemble(model, {});
  EXPECT_NO_THROW(la::Cholesky{result.matrix});
}

TEST(Assembly, RhsIsElementLengthPartition) {
  const auto soil = soil::LayeredSoil::uniform(0.02);
  const BemModel model = small_grid_model(soil);
  const AssemblyResult linear = assemble(model, {});
  double total = 0.0;
  for (double v : linear.rhs) total += v;
  // Sum of hat integrals over all nodes = total conductor length.
  double length = 0.0;
  for (const BemElement& e : model.elements()) length += e.length;
  EXPECT_NEAR(total, length, 1e-10);

  AssemblyOptions constant;
  constant.integrator.basis = BasisKind::kConstant;
  const AssemblyResult rc = assemble(model, constant);
  for (std::size_t e = 0; e < model.element_count(); ++e) {
    EXPECT_DOUBLE_EQ(rc.rhs[e], model.elements()[e].length);
  }
}

TEST(Assembly, ElementPairCountIsTriangular) {
  const auto soil = soil::LayeredSoil::uniform(0.02);
  const BemModel model = small_grid_model(soil);
  const std::size_t m = model.element_count();
  const AssemblyResult result = assemble(model, {});
  EXPECT_EQ(result.element_pairs, m * (m + 1) / 2);
}

struct ParallelCase {
  ParallelLoop loop;
  par::Schedule schedule;
  Backend backend;
  std::size_t threads;
  std::string name;
};

class ParallelAssembly : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelAssembly, MatchesSequentialWithinTolerance) {
  // Workers flush their segments into the matrix concurrently, so
  // per-entry accumulation order — and nothing else — may differ from the
  // sequential path: parity must hold to tight floating-point reordering
  // tolerance for every schedule / loop mode / backend combination.
  const ParallelCase& c = GetParam();
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const BemModel model = small_grid_model(soil);

  const AssemblyResult sequential = assemble(model, {});

  AssemblyExecution execution;
  execution.num_threads = c.threads;
  execution.loop = c.loop;
  execution.schedule = c.schedule;
  execution.backend = c.backend;
  const AssemblyResult parallel = assemble(model, {}, execution);
  expect_packed_near(sequential.matrix, parallel.matrix);
}

std::vector<ParallelCase> parity_cases() {
  // Full {static, dynamic, guided} x {outer, inner} x {pool, OpenMP} cross
  // product, plus a few chunked variants of the paper's Table 6.2 study.
  std::vector<ParallelCase> cases;
  const std::pair<par::Schedule, const char*> schedules[] = {
      {par::Schedule::static_blocked(), "static"},
      {par::Schedule::dynamic(1), "dynamic1"},
      {par::Schedule::guided(1), "guided1"},
  };
  for (const auto& [loop, loop_name] :
       {std::pair{ParallelLoop::kOuter, "outer"}, std::pair{ParallelLoop::kInner, "inner"}}) {
    for (const auto& [backend, backend_name] :
         {std::pair{Backend::kThreadPool, "pool"}, std::pair{Backend::kOpenMp, "omp"}}) {
      for (const auto& [schedule, schedule_name] : schedules) {
        cases.push_back({loop, schedule, backend, 4,
                         std::string(loop_name) + "_" + schedule_name + "_" + backend_name});
      }
    }
  }
  cases.push_back({ParallelLoop::kOuter, par::Schedule::dynamic(4), Backend::kThreadPool, 4,
                   "outer_dynamic4_pool"});
  cases.push_back({ParallelLoop::kOuter, par::Schedule::static_chunked(2), Backend::kThreadPool,
                   4, "outer_static2_pool"});
  cases.push_back({ParallelLoop::kInner, par::Schedule::guided(2), Backend::kThreadPool, 2,
                   "inner_guided2_pool_t2"});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ModesSchedulesBackends, ParallelAssembly,
                         ::testing::ValuesIn(parity_cases()),
                         [](const auto& info) { return info.param.name; });

// The segment flush at 4 threads against the sequential path, on the inputs
// that take its less common branches.

TEST(ParallelAssembly, WarmCacheSecondPassMatchesSequential) {
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const BemModel model = grid_model(soil, 3, 3);
  const AssemblyResult sequential = assemble(model, {});

  par::ThreadPool pool(4);
  CongruenceCache cache(soil);
  const AssemblyExecution execution{.num_threads = 4, .pool = &pool, .cache = &cache};
  const AssemblyResult cold = assemble(model, {}, execution);
  const AssemblyResult warm = assemble(model, {}, execution);
  EXPECT_GT(cold.cache_stats.misses, 0u);
  EXPECT_EQ(warm.cache_stats.hits, warm.element_pairs);
  EXPECT_EQ(warm.cache_stats.misses, 0u);
  expect_packed_near(sequential.matrix, cold.matrix);
  expect_packed_near(sequential.matrix, warm.matrix);
}

TEST(ParallelAssembly, GeometricOrderingWithFarFieldMatchesSequential) {
  // An elongated grid compresses; the geometric ordering routes every entry
  // through the permutation, and partially covered pairs drop their
  // low-rank entries in the flush.
  const BemModel model = grid_model(soil::LayeredSoil::uniform(0.02), 2, 60);
  AssemblyExecution serial;
  serial.storage.tile_size = 32;
  serial.storage.compression = {
      .epsilon = 1e-8, .min_block = 32, .max_rank = 64, .min_rank_budget = 8};
  serial.storage.compression.ordering = la::DofOrdering::kGeometric;
  const AssemblyResult sequential = assemble(model, {}, serial);
  ASSERT_NE(sequential.ordering, nullptr);
  EXPECT_GE(sequential.compression.low_rank_blocks, 1u);
  EXPECT_GT(sequential.far_field.pairs_skipped, 0u);

  par::ThreadPool pool(4);
  AssemblyExecution parallel = serial;
  parallel.num_threads = 4;
  parallel.pool = &pool;
  const AssemblyResult result = assemble(model, {}, parallel);
  EXPECT_EQ(result.far_field.pairs_skipped, sequential.far_field.pairs_skipped);
  EXPECT_EQ(result.compression.low_rank_blocks, sequential.compression.low_rank_blocks);
  expect_packed_near(sequential.matrix, result.matrix);
}

TEST(ParallelAssembly, SpillStorageMatchesSequential) {
  const BemModel model = grid_model(soil::LayeredSoil::two_layer(0.005, 0.016, 1.0), 4, 4);
  const AssemblyResult sequential = assemble(model, {});

  par::ThreadPool pool(4);
  AssemblyExecution execution{.num_threads = 4, .pool = &pool};
  execution.storage.tile_size = 8;
  execution.storage.residency_budget_bytes =
      la::TileLayout(sequential.matrix.size(), 8).total_bytes() / 3;
  const AssemblyResult spilled = assemble(model, {}, execution);
  EXPECT_GT(spilled.matrix_tiles.evictions, 0u);
  expect_packed_near(sequential.matrix, spilled.matrix);
}

TEST(Assembly, OnePoolThreadIsBitwiseSequential) {
  // A one-thread pool runs the same segments in the same order as the
  // pool-less serial path, so the two must agree to the last bit — for
  // every loop mode, basis, and with or without the congruence cache.
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const BemModel model = grid_model(soil, 3, 3);
  par::ThreadPool pool(1);
  for (const BasisKind basis : {BasisKind::kLinear, BasisKind::kConstant}) {
    AssemblyOptions options;
    options.integrator.basis = basis;
    for (const ParallelLoop loop : {ParallelLoop::kOuter, ParallelLoop::kInner}) {
      for (const bool cached : {false, true}) {
        SCOPED_TRACE(testing::Message() << "constant basis " << (basis == BasisKind::kConstant)
                                        << ", inner loop " << (loop == ParallelLoop::kInner)
                                        << ", cache " << cached);
        CongruenceCache serial_cache(soil, options);
        CongruenceCache pool_cache(soil, options);
        AssemblyExecution serial{.schedule = par::Schedule::guided(2), .loop = loop};
        AssemblyExecution pooled = serial;
        pooled.pool = &pool;
        if (cached) {
          serial.cache = &serial_cache;
          pooled.cache = &pool_cache;
        }
        const AssemblyResult a = assemble(model, options, serial);
        const AssemblyResult b = assemble(model, options, pooled);
        EXPECT_EQ(a.matrix.packed(), b.matrix.packed());
        EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
      }
    }
  }
}

TEST(Assembly, ExternalPoolIsReusedAcrossAssemblies) {
  const auto soil = soil::LayeredSoil::uniform(0.02);
  const BemModel model = small_grid_model(soil);
  const AssemblyResult sequential = assemble(model, {});

  par::ThreadPool pool(3);
  AssemblyExecution execution;
  execution.num_threads = 3;
  execution.pool = &pool;
  for (int round = 0; round < 3; ++round) {
    const AssemblyResult result = assemble(model, {}, execution);
    const auto seq = sequential.matrix.packed();
    const auto par = result.matrix.packed();
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t k = 0; k < seq.size(); ++k) {
      EXPECT_NEAR(seq[k], par[k], 1e-12 * std::abs(seq[k]) + 1e-15) << "packed index " << k;
    }
  }
}

TEST(Assembly, ColumnCostsMeasuredWhenRequested) {
  const auto soil = soil::LayeredSoil::uniform(0.02);
  const BemModel model = small_grid_model(soil);
  AssemblyExecution execution;
  execution.measure_column_costs = true;
  const AssemblyResult result = assemble(model, {}, execution);
  ASSERT_EQ(result.column_costs.size(), model.element_count());
  for (double cost : result.column_costs) EXPECT_GE(cost, 0.0);
  // Later columns couple fewer elements, so the first column should cost at
  // least as much as the last one on average (timing noise aside).
  EXPECT_GE(result.column_costs.front(), 0.0);
}

TEST(Assembly, MixedLayerModelAssembles) {
  // Rods crossing the interface (Balaidos model C topology).
  const auto soil = soil::LayeredSoil::two_layer(0.0025, 0.02, 1.0);
  std::vector<geom::Conductor> grid{{{0, 0, -0.8}, {10, 0, -0.8}, 0.006}};
  geom::RodSpec rod;
  geom::add_rods(grid, {{0, 0, 0}, {10, 0, 0}}, 0.8, rod);
  const auto split = split_at_interfaces(grid, soil);
  const BemModel model(geom::Mesh::build(split), soil);
  // The two rods straddle z = -1.0, so splitting yields 5 elements.
  EXPECT_EQ(model.element_count(), 5u);
  const AssemblyResult result = assemble(model, {});
  EXPECT_NO_THROW(la::Cholesky{result.matrix});
}

}  // namespace
}  // namespace ebem::bem
