// engine::Scheduler — asynchronous submit/future runs: future lifecycle and
// out-of-order consumption, parity of the pipelined path against the
// blocking and serial references at every thread count, warm-cache
// correctness under concurrent submits (shared hits within one physics, a
// cache of its own for each physics), per-run override validation at
// submit time, error propagation and cancellation, the thread-safety of
// the PhaseReport sink the concurrent runs merge into, and the completion
// callback contract (once per run, on every ending, no cycles).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/common/error.hpp"
#include "src/common/phase_report.hpp"
#include "src/engine/counters.hpp"
#include "src/engine/engine.hpp"
#include "src/engine/scheduler.hpp"
#include "src/engine/study.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/parallel/parallel_for.hpp"
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

void expect_sigma_near(const std::vector<double>& actual, const std::vector<double>& expected,
                       const char* label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-12 * std::abs(expected[i]) + 1e-15)
        << label << " index " << i;
  }
}

// ---------------------------------------------------------------------------
// Future lifecycle
// ---------------------------------------------------------------------------

TEST(Scheduler, SubmitReturnsAFutureThatMatchesTheBlockingPath) {
  const bem::BemModel model = bench_model(3);
  Engine blocking;
  const bem::AnalysisResult reference = blocking.analyze(model);

  Engine engine;
  RunFuture future = engine.submit(model);
  EXPECT_TRUE(future.valid());
  future.wait();
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.status(), RunStatus::kDone);
  const bem::AnalysisResult& result = future.get();
  EXPECT_NEAR(result.equivalent_resistance, reference.equivalent_resistance,
              1e-12 * reference.equivalent_resistance);
  // get() does not consume: a second read sees the same object.
  EXPECT_EQ(&future.get(), &result);
  // The per-run report carries the same counters the session report got.
  EXPECT_GT(future.report().counter(bem::kCacheMissesCounter), 0.0);
  EXPECT_DOUBLE_EQ(future.report().counter(kFactorizationsCounter), 1.0);
  const std::size_t pairs = model.element_count() * (model.element_count() + 1) / 2;
  EXPECT_EQ(future.cache_delta().hits + future.cache_delta().misses, pairs);
}

TEST(Scheduler, EmptyFutureThrowsOnEveryAccessor) {
  RunFuture empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)empty.ready(), ebem::InvalidArgument);
  EXPECT_THROW(empty.wait(), ebem::InvalidArgument);
  EXPECT_THROW((void)empty.get(), ebem::InvalidArgument);
}

TEST(Scheduler, QueuedRunBehindABusyWidthOneEngineIsNotReady) {
  // Width 1 serializes runs: while the first (deliberately large) run
  // assembles, the second is stuck queued, so ready() must say no rather
  // than block; wait() then sees it through to done.
  ExecutionConfig config;
  config.pipeline_width = 1;
  Engine engine(config);
  RunFuture slow = engine.submit(bench_model(14));
  RunFuture queued = engine.submit(bench_model(2));

  EXPECT_FALSE(queued.ready());

  slow.wait();
  queued.wait();
  EXPECT_TRUE(queued.ready());
  EXPECT_EQ(queued.status(), RunStatus::kDone);
  EXPECT_GT(queued.get().equivalent_resistance, 0.0);
}

TEST(Scheduler, FactorFuturesAreWaitable) {
  Engine engine;
  FactorFuture future = engine.submit_factor(bench_model(3));
  future.wait();
  EXPECT_TRUE(future.ready());
  const FactoredSystem system = future.take();
  EXPECT_GT(system.size(), 0u);
}

// ---------------------------------------------------------------------------
// Completion callbacks
// ---------------------------------------------------------------------------

TEST(Scheduler, CompletionCallbackFiresOnceForADoneRun) {
  std::atomic<int> analysis_calls{0};
  std::atomic<int> factor_calls{0};
  std::atomic<bool> analysis_ok{false};
  std::atomic<bool> factor_ok{false};
  {
    Engine engine;
    RunFuture future = engine.submit(bench_model(3), {}, {}, [&](RunFuture done) {
      // Terminal, published and readable from inside the callback.
      analysis_ok = done.ready() && done.status() == RunStatus::kDone &&
                    done.get().equivalent_resistance > 0.0;
      analysis_calls.fetch_add(1);
    });
    FactorFuture factor = engine.submit_factor(bench_model(3), {}, {}, [&](FactorFuture done) {
      factor_ok = done.status() == RunStatus::kDone && done.take().size() > 0;
      factor_calls.fetch_add(1);
    });
    EXPECT_GT(future.get().equivalent_resistance, 0.0);
    factor.wait();
  }
  EXPECT_EQ(analysis_calls.load(), 1);
  EXPECT_EQ(factor_calls.load(), 1);
  EXPECT_TRUE(analysis_ok.load());
  EXPECT_TRUE(factor_ok.load());
}

TEST(Scheduler, CompletionCallbackFiresOnceForAFailedRun) {
  // The one-iteration CG failure of StageFailureIsRethrownByTheFuture.
  ExecutionConfig config;
  config.solver = bem::SolverKind::kPcg;
  config.cg_max_iterations = 1;
  std::atomic<int> calls{0};
  std::atomic<bool> rethrows{false};
  {
    Engine engine(config);
    RunFuture future = engine.submit(bench_model(3), {}, {}, [&](RunFuture done) {
      EXPECT_EQ(done.status(), RunStatus::kFailed);
      try {
        (void)done.get();
      } catch (const ebem::InvalidArgument&) {
        rethrows = true;
      }
      calls.fetch_add(1);
    });
    future.wait();
    EXPECT_EQ(future.status(), RunStatus::kFailed);
  }
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(rethrows.load());
}

TEST(Scheduler, CompletionCallbackFiresOnceForARunCancelledWhileQueued) {
  ExecutionConfig config;
  config.pipeline_width = 1;  // one executor: the second submit provably queues
  std::atomic<int> calls{0};
  std::atomic<bool> saw_cancelled{false};
  {
    Engine engine(config);
    RunFuture slow = engine.submit(bench_model(10));
    RunFuture queued = engine.submit(bench_model(2), {}, {}, [&](RunFuture done) {
      saw_cancelled = done.status() == RunStatus::kCancelled;
      calls.fetch_add(1);
    });
    ASSERT_TRUE(queued.cancel());
    EXPECT_EQ(queued.status(), RunStatus::kCancelled);
    // The cancel itself does not run the callback; the executor that pops
    // the cancelled run does, exactly once.
    slow.wait();
  }
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(saw_cancelled.load());
}

TEST(Scheduler, EngineDestructionReturnsOnlyAfterEveryCallbackRan) {
  constexpr int kRuns = 6;
  std::atomic<int> calls{0};
  {
    ExecutionConfig config;
    config.pipeline_width = 2;
    Engine engine(config);
    for (int k = 0; k < kRuns; ++k) {
      (void)engine.submit(bench_model(2), {}, {}, [&calls](RunFuture) {
        // Slow callbacks: the destructor must still wait for every one.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        calls.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(calls.load(), kRuns);
}

TEST(Scheduler, CallbackHoldingItsFuturesOwnerDoesNotLeak) {
  // owner -> future -> run -> callback -> owner is a cycle while the run is
  // pending; the scheduler drops the callback after calling it, which must
  // break the cycle.
  struct Owner {
    RunFuture future;
  };
  std::weak_ptr<Owner> watch;
  std::atomic<bool> fired{false};
  {
    ExecutionConfig config;
    config.pipeline_width = 1;
    Engine engine(config);
    // The slow run keeps the owned run queued, so the future is stored in
    // its owner — closing the cycle — before the callback can fire.
    RunFuture slow = engine.submit(bench_model(10));
    auto owner = std::make_shared<Owner>();
    watch = owner;
    owner->future = engine.submit(bench_model(2), {}, {},
                                  [owner, &fired](RunFuture) { fired = true; });
    owner.reset();
    EXPECT_FALSE(watch.expired());  // alive through the cycle alone
    slow.wait();
  }
  EXPECT_TRUE(fired.load());
  EXPECT_TRUE(watch.expired());
}

TEST(Scheduler, SerialCacheOffPipelineIsBitwiseEqualToTheSerialShim) {
  // With one worker and no cache both paths run the identical sequential
  // arithmetic, so the pipeline must not perturb a single bit.
  const bem::BemModel model = bench_model(3);
  const bem::AnalysisResult reference = bem::analyze(model);

  ExecutionConfig config;
  config.use_congruence_cache = false;
  Engine engine(config);
  RunFuture future = engine.submit(model);
  const bem::AnalysisResult& result = future.get();
  ASSERT_EQ(result.sigma.size(), reference.sigma.size());
  for (std::size_t i = 0; i < result.sigma.size(); ++i) {
    EXPECT_EQ(result.sigma[i], reference.sigma[i]) << i;
  }
  EXPECT_EQ(result.equivalent_resistance, reference.equivalent_resistance);
}

// ---------------------------------------------------------------------------
// Pipelined batches: parity and out-of-order consumption
// ---------------------------------------------------------------------------

class SchedulerThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SchedulerThreads, PipelinedLadderMatchesBlockingLadder) {
  const std::size_t threads = GetParam();
  const std::vector<std::size_t> ladder = {3, 4, 5};

  // Blocking reference: same config, runs strictly in sequence.
  std::vector<bem::AnalysisResult> reference;
  {
    ExecutionConfig config;
    config.num_threads = threads;
    Engine engine(config);
    Study study(engine);
    for (const std::size_t cells : ladder) reference.push_back(study.analyze(bench_model(cells)));
  }

  ExecutionConfig config;
  config.num_threads = threads;
  Engine engine(config);
  Study study(engine);
  std::vector<RunFuture> futures;
  for (const std::size_t cells : ladder) futures.push_back(study.submit(bench_model(cells)));
  EXPECT_EQ(study.runs(), ladder.size());

  for (std::size_t k = 0; k < futures.size(); ++k) {
    const bem::AnalysisResult& result = futures[k].get();
    EXPECT_NEAR(result.equivalent_resistance, reference[k].equivalent_resistance,
                1e-12 * reference[k].equivalent_resistance)
        << "candidate " << k << " threads " << threads;
    expect_sigma_near(result.sigma, reference[k].sigma, "pipelined candidate");
  }
  // Session counters: one factorization per run, every pair looked up once
  // per run.
  EXPECT_DOUBLE_EQ(engine.report().counter(kFactorizationsCounter),
                   static_cast<double>(ladder.size()));
  double lookups = 0.0;
  for (const std::size_t cells : ladder) {
    const std::size_t m = bench_model(cells).element_count();
    lookups += static_cast<double>(m * (m + 1) / 2);
  }
  EXPECT_DOUBLE_EQ(engine.report().counter(bem::kCacheHitsCounter) +
                       engine.report().counter(bem::kCacheMissesCounter),
                   lookups);
}

TEST_P(SchedulerThreads, FuturesCanBeConsumedOutOfOrder) {
  const std::size_t threads = GetParam();
  ExecutionConfig config;
  config.num_threads = threads;
  Engine engine(config);

  std::vector<RunFuture> futures;
  for (const std::size_t cells : {3u, 4u, 5u}) futures.push_back(engine.submit(bench_model(cells)));
  // Last first: consuming out of submission order must neither deadlock nor
  // mix up payloads.
  for (std::size_t k = futures.size(); k-- > 0;) {
    const std::size_t cells = 3 + k;
    const bem::AnalysisResult& result = futures[k].get();
    const bem::BemModel model = bench_model(cells);
    EXPECT_EQ(result.sigma.size(), model.dof_count(bem::BasisKind::kLinear)) << cells;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SchedulerThreads, ::testing::Values(1, 2, 4),
                         [](const auto& info) { return "t" + std::to_string(info.param); });

TEST(Scheduler, SubmitFactorYieldsAWorkingFactoredSystem) {
  const bem::BemModel model = bench_model(3);
  Engine reference_engine;
  const FactoredSystem reference = reference_engine.factor(model);
  const std::vector<double> ref_x = reference.solve();

  Engine engine;
  FactorFuture future = engine.submit_factor(model);
  FactoredSystem system = future.take();
  expect_sigma_near(system.solve(), ref_x, "submitted factor");
  EXPECT_DOUBLE_EQ(engine.report().counter(kFactorizationsCounter), 1.0);
  EXPECT_DOUBLE_EQ(engine.report().counter(kRhsSolvedCounter), 1.0);
  const std::size_t pairs = model.element_count() * (model.element_count() + 1) / 2;
  EXPECT_EQ(future.cache_delta().hits + future.cache_delta().misses, pairs);
}

// ---------------------------------------------------------------------------
// Warm cache under pipelining
// ---------------------------------------------------------------------------

TEST(Scheduler, ConcurrentSubmitsWithTheSamePhysicsShareTheWarmCache) {
  const bem::BemModel model = bench_model(4);
  const bem::AnalysisResult reference = bem::analyze(model);
  const std::size_t pairs = model.element_count() * (model.element_count() + 1) / 2;

  Engine engine;  // pipeline_width 2: the two runs' assemblies may overlap
  RunFuture first = engine.submit(model);
  RunFuture second = engine.submit(model);
  const bem::AnalysisResult& r1 = first.get();
  const bem::AnalysisResult& r2 = second.get();
  EXPECT_NEAR(r1.equivalent_resistance, reference.equivalent_resistance,
              1e-12 * reference.equivalent_resistance);
  EXPECT_NEAR(r2.equivalent_resistance, reference.equivalent_resistance,
              1e-12 * reference.equivalent_resistance);

  // Each run looked up every one of its pairs exactly once; together they
  // integrated at most the distinct classes twice (racing cold keys) and
  // certainly shared whatever was already warm.
  EXPECT_EQ(r1.cache_stats.hits + r1.cache_stats.misses, pairs);
  EXPECT_EQ(r2.cache_stats.hits + r2.cache_stats.misses, pairs);
  EXPECT_GT(r1.cache_stats.hits + r2.cache_stats.hits, 0u);

  // Deterministic regardless of interleaving: the cache now holds every
  // class, so a third run replays everything.
  RunFuture third = engine.submit(model);
  EXPECT_EQ(third.get().cache_stats.misses, 0u);
  EXPECT_EQ(third.cache_delta().hits, pairs);
}

TEST(Scheduler, PhysicsChangeBetweenSubmitsDrainsInFlightRunsBeforeClearing) {
  // Same geometry under two different soils: replaying the uniform-soil
  // blocks for the layered run would be grossly wrong. The first run keeps
  // the uniform cache until it drains; the second starts on a fresh one,
  // and both runs complete and match their cold references.
  geom::RectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  const geom::Mesh mesh = geom::Mesh::build(geom::make_rect_grid(spec));
  const bem::BemModel uniform(mesh, soil::LayeredSoil::uniform(0.02));
  const bem::BemModel layered(mesh, soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));

  const bem::AnalysisResult cold_uniform = bem::analyze(uniform);
  const bem::AnalysisResult cold_layered = bem::analyze(layered);

  Engine engine;
  RunFuture warm_uniform = engine.submit(uniform);
  RunFuture warm_layered = engine.submit(layered);
  EXPECT_NEAR(warm_uniform.get().equivalent_resistance, cold_uniform.equivalent_resistance,
              1e-12 * cold_uniform.equivalent_resistance);
  EXPECT_NEAR(warm_layered.get().equivalent_resistance, cold_layered.equivalent_resistance,
              1e-12 * cold_layered.equivalent_resistance);

  // The uniform run drained into its own cache, never the layered one: only
  // the layered physics' classes are held by the engine now.
  bem::CongruenceCache cold_cache(layered.soil());
  const bem::AssemblyResult cold = bem::assemble(layered, {}, {.cache = &cold_cache});
  EXPECT_EQ(engine.cache_stats().entries, cold.cache_stats.entries);
  // And the layered run really did start cold (no cross-physics replays).
  EXPECT_EQ(warm_layered.get().cache_stats.hits, cold.cache_stats.hits);
}

TEST(Scheduler, AlternatingPhysicsRunsNeverReplayEachOthersBlocks) {
  // Same geometry under two soils, submitted A, B, A, B back to back to a
  // width-2, 4-thread engine. Replaying one soil's blocks for the other
  // would be grossly wrong; each physics change installs a fresh cache, and
  // runs still assembling under the previous physics keep theirs.
  geom::RectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 4;
  spec.cells_y = 4;
  const geom::Mesh mesh = geom::Mesh::build(geom::make_rect_grid(spec));
  const bem::BemModel uniform(mesh, soil::LayeredSoil::uniform(0.02));
  const bem::BemModel layered(mesh, soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));
  const bem::BemModel* const models[] = {&uniform, &layered, &uniform, &layered};
  const std::size_t pairs = uniform.element_count() * (uniform.element_count() + 1) / 2;

  ExecutionConfig config;
  config.num_threads = 4;
  config.pipeline_width = 2;
  Engine engine(config);
  std::vector<RunFuture> futures;
  for (const bem::BemModel* model : models) futures.push_back(engine.submit(*model));

  ExecutionConfig off;
  off.use_congruence_cache = false;
  Engine reference_engine(off);
  std::size_t run_pairs = 0;
  std::size_t cold_layered_entries = 0;
  for (std::size_t k = 0; k < futures.size(); ++k) {
    const bem::AnalysisResult& warm = futures[k].get();
    const bem::AnalysisResult reference = reference_engine.analyze(*models[k]);
    EXPECT_NEAR(warm.equivalent_resistance, reference.equivalent_resistance,
                1e-12 * reference.equivalent_resistance)
        << k;
    expect_sigma_near(warm.sigma, reference.sigma, "alternating physics");

    // Every run starts its physics cold: no block replays across physics.
    // Against a serial cold assembly, 4 workers can only fall short (two
    // racing on a cold key both miss); any replay from another run's cache
    // would exceed it.
    bem::CongruenceCache cold_cache(models[k]->soil());
    const bem::AssemblyResult cold = bem::assemble(*models[k], {}, {.cache = &cold_cache});
    EXPECT_LE(warm.cache_stats.hits, cold.cache_stats.hits) << k;
    run_pairs += warm.cache_stats.hits + warm.cache_stats.misses;
    cold_layered_entries = cold.cache_stats.entries;
  }
  EXPECT_EQ(run_pairs, 4 * pairs);
  EXPECT_EQ(engine.cache_stats().hits + engine.cache_stats().misses, run_pairs);
  // The current cache is the last physics' (B's), filled by one cold run.
  EXPECT_EQ(engine.cache_stats().entries, cold_layered_entries);
}

// ---------------------------------------------------------------------------
// Per-run overrides and error propagation
// ---------------------------------------------------------------------------

TEST(Scheduler, BrokenOverridesAndOptionsThrowAtSubmitTime) {
  Engine engine;
  const bem::BemModel model = bench_model(2);

  SubmitOptions bad_storage;
  bad_storage.storage = la::StorageConfig{.tile_size = 0};
  EXPECT_THROW((void)engine.submit(model, {}, bad_storage), ebem::InvalidArgument);

  SubmitOptions budget_without_dir;
  budget_without_dir.storage =
      la::StorageConfig{.tile_size = 16, .residency_budget_bytes = 1 << 16, .spill_dir = ""};
  EXPECT_THROW((void)engine.submit(model, {}, budget_without_dir), ebem::InvalidArgument);

  bem::AnalysisOptions bad_gpr;
  bad_gpr.gpr = 0.0;
  EXPECT_THROW((void)engine.submit(model, bad_gpr), ebem::InvalidArgument);
}

TEST(Scheduler, PerRunStorageOverrideSpillsJustThatRun) {
  const bem::BemModel model = bench_model(4);
  Engine engine;
  const bem::AnalysisResult in_memory = engine.analyze(model);
  EXPECT_EQ(in_memory.matrix_tiles.evictions, 0u);

  SubmitOptions spilled;
  la::StorageConfig storage;
  storage.tile_size = 16;
  storage.residency_budget_bytes =
      la::TileLayout(in_memory.sigma.size(), 16).total_bytes() / 3;
  spilled.storage = storage;
  RunFuture future = engine.submit(model, {}, spilled);
  const bem::AnalysisResult& result = future.get();
  EXPECT_GT(result.matrix_tiles.evictions, 0u);
  expect_sigma_near(result.sigma, in_memory.sigma, "spilled run");
  // The pager counters of the overridden run landed on the session report.
  EXPECT_GT(engine.report().counter(kTileEvictionsCounter), 0.0);
}

TEST(Scheduler, StageFailureIsRethrownByTheFuture) {
  // One CG iteration cannot converge to 1e-12: the solve stage throws on an
  // executor and the future must deliver exactly that failure.
  ExecutionConfig config;
  config.solver = bem::SolverKind::kPcg;
  config.cg_max_iterations = 1;
  Engine engine(config);
  RunFuture future = engine.submit(bench_model(3));
  future.wait();
  EXPECT_EQ(future.status(), RunStatus::kFailed);
  EXPECT_THROW((void)future.get(), ebem::InvalidArgument);
  // A failed run leaves no partial timings on the session report.
  EXPECT_DOUBLE_EQ(engine.report().total_wall_seconds(), 0.0);

  // The engine keeps scheduling after a failure (looser tolerance converges).
  bem::AnalysisOptions relaxed;
  RunFuture after = engine.submit(bench_model(2), relaxed);
  after.wait();
  EXPECT_EQ(after.status(), RunStatus::kFailed);  // still 1 iteration: fails too
  // Fresh engine sanity: the default CG budget converges.
  ExecutionConfig pcg;
  pcg.solver = bem::SolverKind::kPcg;
  Engine healthy(pcg);
  EXPECT_GT(healthy.submit(bench_model(2)).get().equivalent_resistance, 0.0);
}

TEST(Scheduler, CancelIsBestEffortAndOnlyHitsQueuedRuns) {
  ExecutionConfig config;
  config.pipeline_width = 1;  // one executor: later submits provably queue
  Engine engine(config);
  RunFuture running = engine.submit(bench_model(5));
  RunFuture queued_a = engine.submit(bench_model(4));
  RunFuture queued_b = engine.submit(bench_model(3));

  const bool cancelled = queued_b.cancel();
  if (cancelled) {
    queued_b.wait();
    EXPECT_EQ(queued_b.status(), RunStatus::kCancelled);
    EXPECT_THROW((void)queued_b.get(), ebem::InvalidArgument);
    EXPECT_TRUE(queued_b.cancel());  // idempotent on a cancelled run
  } else {
    // Lost the race: the run had already started and must complete.
    EXPECT_GT(queued_b.get().equivalent_resistance, 0.0);
  }
  // Unaffected runs complete either way.
  EXPECT_GT(running.get().equivalent_resistance, 0.0);
  EXPECT_GT(queued_a.get().equivalent_resistance, 0.0);
  // A finished run can no longer be cancelled.
  EXPECT_FALSE(running.cancel());
  engine.drain();
}

// ---------------------------------------------------------------------------
// PhaseReport: the thread-safe sink under the pool
// ---------------------------------------------------------------------------

TEST(PhaseReportConcurrency, NamedCountersLoseNoIncrementsUnderThePool) {
  PhaseReport report;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  par::ThreadPool pool(kThreads);
  pool.run([&](std::size_t tid) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      report.add_counter("Congruence cache hits", 1.0);
      // A second name forces the insert path to race with lookups too.
      if (tid % 2 == 0) report.add_counter("Right-hand sides solved", 2.0);
      report.add(Phase::kMatrixGeneration, 1e-9, 1e-9);
    }
  });
  EXPECT_DOUBLE_EQ(report.counter("Congruence cache hits"),
                   static_cast<double>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(report.counter("Right-hand sides solved"),
                   static_cast<double>(kThreads / 2 * kPerThread) * 2.0);
  EXPECT_NEAR(report.wall_seconds(Phase::kMatrixGeneration),
              static_cast<double>(kThreads * kPerThread) * 1e-9, 1e-12);
}

TEST(SchedulerBackpressure, BoundedQueueCapsOutstandingRunsOverAThousandSubmits) {
  // Regression guard for unbounded submission: with max_pending_runs set, a
  // burst of 1000 submits must never hold more than the bound's worth of
  // non-terminal runs (and their matrices) at once — submit() blocks until
  // a run retires instead of queueing without limit.
  constexpr std::size_t kBound = 4;
  constexpr std::size_t kSubmits = 1000;
  ExecutionConfig config;
  config.num_threads = 1;
  config.pipeline_width = 2;
  config.max_pending_runs = kBound;
  Engine engine(config);

  const bem::BemModel model = bench_model(1);
  std::vector<RunFuture> futures;
  futures.reserve(kSubmits);
  for (std::size_t i = 0; i < kSubmits; ++i) futures.push_back(engine.submit(model));
  const double reference = futures.front().get().equivalent_resistance;
  for (RunFuture& future : futures) {
    EXPECT_DOUBLE_EQ(future.get().equivalent_resistance, reference);
  }

  const SchedulerStats stats = engine.scheduler_stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kSubmits));
  EXPECT_GT(stats.peak_outstanding, 0u);
  EXPECT_LE(stats.peak_outstanding, kBound);
}

TEST(SchedulerBackpressure, UnboundedConfigStillReportsStats) {
  Engine engine;  // max_pending_runs = 0: historical unbounded behavior
  EXPECT_EQ(engine.scheduler_stats().submitted, 0u);  // lazily created
  std::vector<RunFuture> futures;
  for (std::size_t i = 0; i < 8; ++i) futures.push_back(engine.submit(bench_model(1)));
  engine.drain();
  const SchedulerStats stats = engine.scheduler_stats();
  EXPECT_EQ(stats.submitted, 8u);
  // All eight may be outstanding at once — the point of the default.
  EXPECT_LE(stats.peak_outstanding, 8u);
}

TEST(SchedulerBackpressure, RejectsAWindowSmallerThanNothing) {
  ExecutionConfig config;
  config.max_pending_runs = 1;  // legal: fully serialized submission
  Engine engine(config);
  EXPECT_DOUBLE_EQ(engine.submit(bench_model(1)).get().equivalent_resistance,
                   engine.analyze(bench_model(1)).equivalent_resistance);
  EXPECT_LE(engine.scheduler_stats().peak_outstanding, 1u);
}

TEST(PhaseReportConcurrency, ConcurrentMergesIntoOneSinkAreAdditive) {
  // The engine's session report receives merge() from several executors at
  // once; every per-run report must land exactly once.
  PhaseReport sink;
  PhaseReport run;
  run.add(Phase::kLinearSolve, 1.0, 2.0);
  run.add_counter("Cholesky factorizations", 1.0);

  constexpr std::size_t kThreads = 8;
  par::ThreadPool pool(kThreads);
  pool.run([&](std::size_t) { sink.merge(run); });

  EXPECT_DOUBLE_EQ(sink.counter("Cholesky factorizations"), static_cast<double>(kThreads));
  EXPECT_DOUBLE_EQ(sink.wall_seconds(Phase::kLinearSolve), static_cast<double>(kThreads));
  EXPECT_DOUBLE_EQ(sink.cpu_seconds(Phase::kLinearSolve), 2.0 * static_cast<double>(kThreads));
}

}  // namespace
}  // namespace ebem::engine
