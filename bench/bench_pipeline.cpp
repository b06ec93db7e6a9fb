// Pipelined-session bench: wall time of a design-ladder batch run
// sequentially (blocking Study::analyze per candidate) vs submitted as one
// pipelined batch (Study::submit, futures consumed in order) on the same
// engine configuration. One JSON line per (cache, threads) configuration
// for artifact archiving; `speedup` > 1 means the scheduler overlapped
// candidate k+1's assembly with candidate k's factorization/solve tail.
// NOTE: on a 1-CPU host the pipeline cannot overlap anything, so speedup
// ~1.0 there and only the scheduler overhead is observable.
//
// Usage: bench_pipeline [cells] [max_threads] [--check]
//   cells        largest ladder candidate, cells per side (default 12 ->
//                312 elements; the ladder walks ... cells-4, cells-2, cells
//                with a fixed 5 m cell size, the design_search shape)
//   max_threads  thread counts 1, 2, 4, ... up to this value (default 1)
//   --check      CI parity smoke: exit nonzero unless the pipelined batch
//                matches the sequential ladder candidate by candidate —
//                bitwise where the policy guarantees it (one worker, cache
//                off: both paths run identical serial arithmetic, and the
//                ladder must match the serial bem::analyze reference
//                oracle bit for bit) and to 1e-12 relative otherwise (the
//                congruence cache and scatter reordering admit
//                quantization-level drift, never more).
//
// The JSON lines feed CI's bench-regression gate (bench/compare_bench.py
// vs bench/baselines/, pipelined wall time at matching pool_threads); see
// bench/baselines/README.md for re-baselining.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/common/resource_usage.hpp"
#include "src/common/timer.hpp"
#include "src/engine/engine.hpp"
#include "src/engine/scheduler.hpp"
#include "src/engine/study.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/parallel/thread_pool.hpp"

namespace {

using namespace ebem;

double max_rel_diff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double scale = std::abs(a[k]) + 1e-300;
    worst = std::max(worst, std::abs(a[k] - b[k]) / scale);
  }
  return worst;
}

bem::BemModel ladder_model(std::size_t cells) {
  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells);
  spec.length_y = 5.0 * static_cast<double>(cells);
  spec.cells_x = cells;
  spec.cells_y = cells;
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  return bem::BemModel(geom::Mesh::build(geom::make_rect_grid(spec)), soil);
}

std::vector<bem::BemModel> build_ladder(std::size_t cells) {
  const std::size_t first = cells > 4 ? cells - 4 : 2;
  std::vector<bem::BemModel> models;
  for (std::size_t c = first; c <= cells; c += 2) models.push_back(ladder_model(c));
  return models;
}

engine::ExecutionConfig ladder_config(std::size_t threads, bool cache) {
  engine::ExecutionConfig config;
  config.num_threads = threads;
  config.use_congruence_cache = cache;
  return config;
}

struct LadderRun {
  std::vector<bem::AnalysisResult> results;
  double seconds = 0.0;
};

/// Blocking reference: candidate k+1 starts only after candidate k returns.
LadderRun run_sequential(const std::vector<bem::BemModel>& models,
                         const engine::ExecutionConfig& config) {
  engine::Engine engine(config);
  engine::Study study(engine);
  LadderRun run;
  WallTimer timer;
  for (const bem::BemModel& model : models) run.results.push_back(study.analyze(model));
  run.seconds = timer.seconds();
  return run;
}

/// Pipelined batch: every candidate submitted up front, futures consumed in
/// ladder order.
LadderRun run_pipelined(const std::vector<bem::BemModel>& models,
                        const engine::ExecutionConfig& config) {
  engine::Engine engine(config);
  engine::Study study(engine);
  LadderRun run;
  WallTimer timer;
  std::vector<engine::RunFuture> futures;
  futures.reserve(models.size());
  for (const bem::BemModel& model : models) futures.push_back(study.submit(model));
  for (engine::RunFuture& future : futures) run.results.push_back(future.take());
  run.seconds = timer.seconds();
  return run;
}

/// One (cache, threads) configuration: measure both paths, emit JSON,
/// enforce parity in check mode. Returns false on a parity violation.
bool run_config(const std::vector<bem::BemModel>& models, std::size_t threads, bool cache,
                bool check) {
  const engine::ExecutionConfig config = ladder_config(threads, cache);
  const LadderRun sequential = run_sequential(models, config);
  const LadderRun pipelined = run_pipelined(models, config);

  // Bitwise regime: one worker, no cache — identical serial arithmetic on
  // both paths (and in the engine-less bem::analyze oracle, checked below).
  const bool bitwise = threads == 1 && !cache;
  double worst = 0.0;
  bool ok = true;
  for (std::size_t k = 0; k < models.size(); ++k) {
    const std::vector<double>& a = sequential.results[k].sigma;
    const std::vector<double>& b = pipelined.results[k].sigma;
    worst = std::max(worst, max_rel_diff(a, b));
    if (bitwise && a != b) ok = false;
    if (check && bitwise) {
      const bem::AnalysisResult oracle = bem::analyze(models[k]);
      if (oracle.sigma != b ||
          oracle.equivalent_resistance != pipelined.results[k].equivalent_resistance) {
        std::fprintf(stderr,
                     "bench_pipeline: pipelined candidate %zu deviates bitwise from the "
                     "serial bem::analyze oracle\n",
                     k);
        ok = false;
      }
    }
  }
  if (worst > 1e-12) ok = false;

  std::printf(
      "{\"bench\":\"pipeline\",\"candidates\":%zu,\"elements_max\":%zu,\"threads\":%zu,"
      "\"cache\":\"%s\",\"sequential_seconds\":%.6f,\"pipelined_seconds\":%.6f,"
      "\"speedup\":%.3f,\"max_rel_diff\":%.3e,\"bitwise\":%s,"
      "\"hw_concurrency\":%zu,\"pool_threads\":%zu,\"peak_rss_kb\":%zu}\n",
      models.size(), models.back().element_count(), threads, cache ? "on" : "off",
      sequential.seconds, pipelined.seconds,
      pipelined.seconds > 0.0 ? sequential.seconds / pipelined.seconds : 0.0, worst,
      bitwise ? "true" : "false", par::hardware_threads(), config.resolved_threads(),
      peak_rss_bytes() / 1024);

  if (check && !ok) {
    std::fprintf(stderr,
                 "bench_pipeline: pipelined ladder deviates from sequential (threads=%zu "
                 "cache=%s, max rel diff %.3e%s)\n",
                 threads, cache ? "on" : "off", worst,
                 bitwise ? ", bitwise equality required" : "");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cells = 12;
  std::size_t max_threads = 1;
  bool check = false;
  std::size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (positional == 0) {
      cells = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    } else {
      max_threads = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    }
  }
  if (cells < 2 || max_threads == 0) {
    std::fprintf(stderr, "usage: bench_pipeline [cells >= 2] [max_threads >= 1] [--check]\n");
    return 1;
  }

  const std::vector<bem::BemModel> models = build_ladder(cells);

  bool ok = true;
  for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
    for (const bool cache : {false, true}) {
      ok = run_config(models, threads, cache, check) && ok;
    }
  }
  if (check && !ok) return 1;
  return 0;
}
