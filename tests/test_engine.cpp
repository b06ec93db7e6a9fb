// engine:: subsystem: ExecutionConfig validation, Engine warm-cache
// behaviour across analyses (including the fresh cache a physics change
// starts on), FactoredSystem multi-RHS parity and factorization accounting, and the
// Study session that design_search style ladders run on.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/common/error.hpp"
#include "src/engine/counters.hpp"
#include "src/engine/engine.hpp"
#include "src/engine/study.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::engine {
namespace {

/// Uniform bench-grid family: fixed 5 m cell size, growing extent — nearby
/// systems whose pair geometries heavily overlap (the design_search shape).
bem::BemModel bench_model(std::size_t cells) {
  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells);
  spec.length_y = 5.0 * static_cast<double>(cells);
  spec.cells_x = cells;
  spec.cells_y = cells;
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  return bem::BemModel(geom::Mesh::build(geom::make_rect_grid(spec)), soil);
}

// ---------------------------------------------------------------------------
// ExecutionConfig validation
// ---------------------------------------------------------------------------

TEST(ExecutionConfig, DefaultIsValidAndSerial) {
  const ExecutionConfig config;
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.resolved_threads(), 1u);
}

TEST(ExecutionConfig, PoolWithContradictingThreadCountThrows) {
  // The historical footgun: a solver's pool was silently ignored when
  // num_threads stayed at its default of 1. The config now rejects the
  // contradiction once, at Engine construction.
  par::ThreadPool pool(4);
  ExecutionConfig config;
  config.pool = &pool;
  EXPECT_THROW(config.validate(), ebem::InvalidArgument);  // num_threads == 1 != 4
  config.num_threads = 2;
  EXPECT_THROW(config.validate(), ebem::InvalidArgument);
  EXPECT_THROW(Engine{config}, ebem::InvalidArgument);
}

TEST(ExecutionConfig, PoolIsAdoptedWithAutoOrMatchingThreads) {
  par::ThreadPool pool(3);
  ExecutionConfig config;
  config.pool = &pool;
  config.num_threads = 0;  // auto: adopt the pool's size
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.resolved_threads(), 3u);
  config.num_threads = 3;  // explicit match is also fine
  EXPECT_NO_THROW(config.validate());

  Engine engine(config);
  EXPECT_EQ(engine.num_threads(), 3u);
  EXPECT_EQ(engine.pool(), &pool);
}

TEST(ExecutionConfig, RejectsBrokenNumericPolicies) {
  ExecutionConfig config;
  config.cg_tolerance = -1.0;
  EXPECT_THROW(config.validate(), ebem::InvalidArgument);
}

TEST(ExecutionConfig, AutoThreadsWithoutPoolUsesHardware) {
  ExecutionConfig config;
  config.num_threads = 0;
  EXPECT_GE(config.resolved_threads(), 1u);
}

TEST(ExecutionConfig, RejectsBrokenStoragePolicies) {
  ExecutionConfig config;
  config.storage.tile_size = 0;
  EXPECT_THROW(config.validate(), ebem::InvalidArgument);
  config = {};
  config.storage.residency_budget_bytes = 1 << 20;
  config.storage.spill_dir.clear();  // a budget needs somewhere to spill
  EXPECT_THROW(config.validate(), ebem::InvalidArgument);
  config.storage.spill_dir = ".";
  EXPECT_NO_THROW(config.validate());
}

TEST(ExecutionConfig, MeasureResidualSwitchesTheDirectResidualCheck) {
  const bem::BemModel model = bench_model(3);
  ExecutionConfig config;
  config.measure_residual = false;
  Engine unmeasured(config);
  EXPECT_EQ(unmeasured.analyze(model).solve_stats.relative_residual, 0.0);

  Engine measured;  // measure_residual defaults to true
  const double residual = measured.analyze(model).solve_stats.relative_residual;
  EXPECT_GT(residual, 0.0);
  EXPECT_LT(residual, 1e-12);
}

// ---------------------------------------------------------------------------
// Engine: one path with the serial reference
// ---------------------------------------------------------------------------

/// The serial bem path under the plan a width-1, cache-off engine resolves
/// `config` into: assemble -> solve -> finish_analysis, no scheduler.
bem::AnalysisResult serial_path(const bem::BemModel& model, const ExecutionConfig& config) {
  bem::AssemblyResult system = bem::assemble(model, {}, {.storage = config.storage});
  bem::SolveStats stats;
  const bem::SolveExecution plan{.kind = config.solver, .ordering = system.ordering.get()};
  std::vector<double> sigma_hat = bem::solve(system.matrix, system.rhs, plan, &stats);
  bem::AnalysisResult result = bem::finish_analysis(std::move(system), std::move(sigma_hat), 1.0);
  result.solve_stats = stats;
  return result;
}

TEST(Engine, WidthOneCacheOffMatchesTheSerialPathBitwise) {
  const bem::BemModel model = bench_model(4);
  ExecutionConfig base;
  base.pipeline_width = 1;
  base.use_congruence_cache = false;

  ExecutionConfig pcg = base;
  pcg.solver = bem::SolverKind::kPcg;
  ExecutionConfig ordered = base;
  ordered.storage.tile_size = 8;
  ordered.storage.compression.ordering = la::DofOrdering::kGeometric;

  // The direct path is also checked against the bem::analyze oracle itself.
  const bem::AnalysisResult oracle = bem::analyze(model);
  const bem::AnalysisResult direct = serial_path(model, base);
  EXPECT_EQ(direct.equivalent_resistance, oracle.equivalent_resistance);
  EXPECT_EQ(direct.sigma, oracle.sigma);
  EXPECT_GT(serial_path(model, ordered).ordering_stats.cluster_leaves, 1u);

  const std::vector<std::pair<const char*, ExecutionConfig>> setups{
      {"cholesky", base}, {"pcg", pcg}, {"cholesky geometric", ordered}};
  for (const auto& [name, config] : setups) {
    SCOPED_TRACE(name);
    Engine engine(config);
    const bem::AnalysisResult result = engine.analyze(model);
    const bem::AnalysisResult reference = serial_path(model, config);
    EXPECT_EQ(result.equivalent_resistance, reference.equivalent_resistance);
    EXPECT_EQ(result.sigma, reference.sigma);
    EXPECT_EQ(result.solve_stats.iterations, reference.solve_stats.iterations);
  }
}

// ---------------------------------------------------------------------------
// Engine: out-of-core storage policy
// ---------------------------------------------------------------------------

TEST(Engine, SpillStorageMatchesInMemoryAndReportsPagerCounters) {
  const bem::BemModel model = bench_model(4);

  Engine in_memory{};
  const bem::AnalysisResult reference = in_memory.analyze(model);

  ExecutionConfig config;
  config.storage.tile_size = 16;
  const std::size_t n = reference.sigma.size();
  config.storage.residency_budget_bytes =
      la::TileLayout(n, 16).total_bytes() / 3;
  Engine spilling(config);
  const bem::AnalysisResult result = spilling.analyze(model);

  ASSERT_EQ(result.sigma.size(), reference.sigma.size());
  for (std::size_t i = 0; i < result.sigma.size(); ++i) {
    EXPECT_NEAR(result.sigma[i], reference.sigma[i],
                1e-12 * std::abs(reference.sigma[i]) + 1e-15);
  }
  // Eviction/IO counters land on the session PhaseReport; the in-memory
  // session keeps a clean report.
  EXPECT_GT(spilling.report().counter(kTileEvictionsCounter), 0.0);
  EXPECT_GT(spilling.report().counter(kTileSpillReadsCounter), 0.0);
  EXPECT_GT(spilling.report().counter(kTileSpillWritesCounter), 0.0);
  EXPECT_EQ(in_memory.report().counter(kTileEvictionsCounter), 0.0);
  EXPECT_GT(result.matrix_tiles.evictions, 0u);
}

TEST(Engine, FactorUnderSpillStorageSolvesAndCountsOnTheReport) {
  const bem::BemModel model = bench_model(4);
  Engine reference{};
  const engine::FactoredSystem ref_factored = reference.factor(model);
  const std::vector<double> ref_x = ref_factored.solve();

  ExecutionConfig config;
  config.storage.tile_size = 16;
  config.storage.residency_budget_bytes =
      la::TileLayout(ref_x.size(), 16).total_bytes() / 3;
  Engine spilling(config);
  const engine::FactoredSystem factored = spilling.factor(model);
  const std::vector<double> x = factored.solve();
  ASSERT_EQ(x.size(), ref_x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref_x[i], 1e-12 * std::abs(ref_x[i]) + 1e-15);
  }
  EXPECT_GT(spilling.report().counter(kTileEvictionsCounter), 0.0);
  EXPECT_EQ(spilling.report().counter(kFactorizationsCounter), 1.0);
}

// ---------------------------------------------------------------------------
// Engine: warm cache across analyses
// ---------------------------------------------------------------------------

TEST(Engine, AnalyzeMatchesSerialShimWithinCacheParity) {
  const bem::BemModel model = bench_model(3);
  const bem::AnalysisResult reference = bem::analyze(model);

  Engine engine;  // warm cache on by default
  const bem::AnalysisResult result = engine.analyze(model);
  EXPECT_NEAR(result.equivalent_resistance, reference.equivalent_resistance,
              1e-12 * reference.equivalent_resistance);
  ASSERT_EQ(result.sigma.size(), reference.sigma.size());
  for (std::size_t i = 0; i < result.sigma.size(); ++i) {
    EXPECT_NEAR(result.sigma[i], reference.sigma[i], 1e-12 * std::abs(reference.sigma[i]));
  }
}

TEST(Engine, CacheStaysWarmAcrossRepeatedAnalyses) {
  const bem::BemModel model = bench_model(3);
  Engine engine;
  (void)engine.analyze(model);
  const bem::CongruenceCacheStats first = engine.cache_stats();
  EXPECT_GT(first.misses, 0u);

  (void)engine.analyze(model);
  const bem::CongruenceCacheStats second = engine.cache_stats();
  // The warm re-run integrates nothing new.
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(second.entries, first.entries);
  EXPECT_GT(second.hits, first.hits);
}

TEST(Engine, PhysicsChangeDropsTheWarmCache) {
  // Same geometry classes under different soil would replay wrong blocks;
  // the physics change must leave the old soil's cache behind and start the
  // new soil on a fresh one.
  geom::RectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  const geom::Mesh mesh = geom::Mesh::build(geom::make_rect_grid(spec));
  const bem::BemModel uniform(mesh, soil::LayeredSoil::uniform(0.02));
  const bem::BemModel layered(mesh, soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));

  const bem::AnalysisResult cold_layered = bem::analyze(layered);

  Engine engine;
  Study study(engine);
  const bem::CongruenceCacheStats uniform_delta = study.analyze(uniform).cache_stats;
  const std::size_t entries_after_uniform = engine.cache_stats().entries;
  EXPECT_GT(entries_after_uniform, 0u);
  const std::size_t uniform_lookups = uniform_delta.hits + uniform_delta.misses;

  const bem::AnalysisResult warm_layered = study.analyze(layered);
  // Wrong replays would show up as a grossly different resistance.
  EXPECT_NEAR(warm_layered.equivalent_resistance, cold_layered.equivalent_resistance,
              1e-12 * cold_layered.equivalent_resistance);
  // Per-run delta accounting must survive the cache swap: the layered run's
  // counters are its own (no wrap-around, no leftover zeros), and its
  // misses reflect the fresh cache.
  const bem::CongruenceCacheStats delta = warm_layered.cache_stats;
  const std::size_t pairs = layered.element_count() * (layered.element_count() + 1) / 2;
  EXPECT_EQ(delta.hits + delta.misses, pairs);
  EXPECT_GT(delta.misses, 0u);
  // Only the layered physics' classes are held now.
  bem::CongruenceCache cold_cache(layered.soil());
  const bem::AssemblyResult cold = bem::assemble(layered, {}, {.cache = &cold_cache});
  EXPECT_EQ(engine.cache_stats().entries, cold.cache_stats.entries);
  // The session totals keep accumulating across the swap.
  EXPECT_EQ(engine.cache_stats().hits + engine.cache_stats().misses,
            uniform_lookups + pairs);
}

TEST(Engine, SharedPoolServesAssemblyAndSolve) {
  const bem::BemModel model = bench_model(3);
  const bem::AnalysisResult reference = bem::analyze(model);

  ExecutionConfig config;
  config.num_threads = 4;
  config.use_congruence_cache = false;
  Engine engine(config);
  ASSERT_NE(engine.pool(), nullptr);
  EXPECT_EQ(engine.pool()->num_threads(), 4u);

  const bem::AnalysisResult result = engine.analyze(model);
  // Parallel assembly reorders scatter accumulation only; the
  // blocked parallel Cholesky is bit-identical by construction.
  EXPECT_NEAR(result.equivalent_resistance, reference.equivalent_resistance,
              1e-12 * reference.equivalent_resistance);
}

// ---------------------------------------------------------------------------
// FactoredSystem: one factorization, many right-hand sides
// ---------------------------------------------------------------------------

class FactoredSystemThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FactoredSystemThreads, SolveManyMatchesIndependentSolves) {
  const std::size_t threads = GetParam();
  const bem::BemModel model = bench_model(3);

  ExecutionConfig config;
  config.num_threads = threads;
  Engine engine(config);
  const FactoredSystem system = engine.factor(model);
  const std::size_t n = system.size();
  ASSERT_GT(n, 0u);

  // 8 deterministic right-hand sides: the assembled nu scaled and shifted.
  constexpr std::size_t kRhs = 8;
  std::vector<double> block(n * kRhs);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < kRhs; ++c) {
      block[i * kRhs + c] = system.rhs()[i] * (1.0 + 0.25 * static_cast<double>(c)) +
                            0.01 * static_cast<double>(i % 7);
    }
  }
  const std::vector<double> many = system.solve_many(block, kRhs);
  ASSERT_EQ(many.size(), n * kRhs);

  // Column-by-column reference through the serial bem::solve front-end on
  // the same matrix. The acceptance bar is 1e-12 relative.
  const bem::AssemblyResult assembled = bem::assemble(model);
  for (std::size_t c = 0; c < kRhs; ++c) {
    std::vector<double> rhs(n);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = block[i * kRhs + c];
    const std::vector<double> x = bem::solve(assembled.matrix, rhs);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(many[i * kRhs + c], x[i], 1e-12 * std::abs(x[i]) + 1e-15)
          << "column " << c << " row " << i << " threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, FactoredSystemThreads, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(FactoredSystem, EightRhsBlockCostsExactlyOneFactorization) {
  const bem::BemModel model = bench_model(2);
  Engine engine;
  const FactoredSystem system = engine.factor(model);

  constexpr std::size_t kRhs = 8;
  std::vector<double> block(system.size() * kRhs, 1.0);
  (void)system.solve_many(block, kRhs);

  EXPECT_DOUBLE_EQ(engine.report().counter(kFactorizationsCounter), 1.0);
  EXPECT_DOUBLE_EQ(engine.report().counter(kRhsSolvedCounter),
                   static_cast<double>(kRhs));

  // Further solves still do not refactor.
  (void)system.solve();
  EXPECT_DOUBLE_EQ(engine.report().counter(kFactorizationsCounter), 1.0);
  EXPECT_DOUBLE_EQ(engine.report().counter(kRhsSolvedCounter),
                   static_cast<double>(kRhs + 1));
}

TEST(FactoredSystem, OwnRhsSolveMatchesAnalyze) {
  const bem::BemModel model = bench_model(2);
  Engine engine;
  const FactoredSystem system = engine.factor(model);
  const std::vector<double> sigma_hat = system.solve();

  const bem::AnalysisResult reference = bem::analyze(model);  // gpr = 1
  ASSERT_EQ(sigma_hat.size(), reference.sigma.size());
  for (std::size_t i = 0; i < sigma_hat.size(); ++i) {
    EXPECT_NEAR(sigma_hat[i], reference.sigma[i], 1e-12 * std::abs(reference.sigma[i]));
  }
}

// ---------------------------------------------------------------------------
// Study: the warm ladder session
// ---------------------------------------------------------------------------

TEST(Study, WarmHitRateBeatsColdStartOnTheUniformBenchLadder) {
  // The acceptance shape of the warm design loop: candidates of growing
  // extent share the 5 m cell size, so candidate k's pairs are nearly all
  // translated copies of blocks candidates 1..k-1 already integrated. Every
  // candidate after the first must beat the hit rate a cold cache achieves
  // on the same grid.
  Engine engine;
  Study study(engine);
  std::size_t previous_entries = 0;
  for (const std::size_t cells : {3u, 4u, 5u}) {
    const bem::BemModel model = bench_model(cells);
    const bem::CongruenceCacheStats warm = study.analyze(model).cache_stats;

    bem::CongruenceCache cold_cache(model.soil());
    const bem::AssemblyResult cold = bem::assemble(model, {}, {.cache = &cold_cache});

    if (cells > 3u) {
      EXPECT_GT(warm.hit_rate(), cold.cache_stats.hit_rate()) << cells;
    }
    // The shared cache only grows; each candidate adds its new classes.
    EXPECT_GT(warm.entries, previous_entries) << cells;
    previous_entries = warm.entries;
  }
  EXPECT_EQ(study.runs(), 3u);
}

TEST(Study, WarmResultsMatchColdResults) {
  Engine engine;
  Study study(engine);
  for (const std::size_t cells : {3u, 4u, 5u}) {
    const bem::BemModel model = bench_model(cells);
    const bem::AnalysisResult warm = study.analyze(model);
    const bem::AnalysisResult cold = bem::analyze(model);
    EXPECT_NEAR(warm.equivalent_resistance, cold.equivalent_resistance,
                1e-12 * cold.equivalent_resistance)
        << cells;
  }
}

TEST(Study, FactorGoesThroughTheWarmCache) {
  Engine engine;
  Study study(engine);
  (void)study.analyze(bench_model(3));
  const bem::CongruenceCacheStats before = engine.cache_stats();
  const FactoredSystem system = study.factor(bench_model(3));
  const bem::CongruenceCacheStats after = engine.cache_stats();
  // The second pass over the same model replays everything.
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GT(system.size(), 0u);
}

}  // namespace
}  // namespace ebem::engine
