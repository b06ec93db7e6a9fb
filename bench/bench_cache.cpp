// Congruence-cache bench: assembly wall time with the cache off vs on, hit
// rate and entry count, plus cache-on/off parity, on two grids:
//  * the uniform rectangular bench grid (the paper's case; nearly all pairs
//    are translated/rotated/reflected/transposed copies of a few hundred
//    classes), and
//  * a geometrically graded grid, the adversarial low-congruence case the
//    cache must degrade gracefully on.
// One JSON line per (grid, threads) for artifact archiving and diffing.
// Each line also carries the warm re-assembly time: a second pass through
// the cache the first pass filled (every pair a hit), as a median of
// repeats, and its speed-up over the 1-thread line of the same grid.
//
// Usage: bench_cache [cells] [max_threads] [--check] [--warm]
//   cells        grid cells per side (default 12 -> 312 elements)
//   max_threads  thread counts 1, 2, 4, ... up to this value (default 1)
//   --check      CI parity smoke: exit nonzero unless cache-on matches
//                cache-off to 1e-12 relative on every packed entry, for
//                every grid and thread count.
//   --warm       cross-candidate mode: run a ladder of uniform grids of
//                growing extent (fixed 5 m cell size) through one warm
//                cache and emit per-candidate hit-rate JSON — the
//                warm rate of candidate k > 1 vs the cold rate a fresh
//                cache achieves on the same grid. This is the design_search
//                reuse pattern in isolation.
//
// The JSON lines double as input to CI's bench-regression gate
// (bench/compare_bench.py vs bench/baselines/): the hit rates gate on
// every run, the timings once the baseline's pool_threads matches the
// runner's. See bench/baselines/README.md for re-baselining.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/bem/assembly.hpp"
#include "src/common/resource_usage.hpp"
#include "src/common/timer.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/parallel/thread_pool.hpp"

namespace {

using namespace ebem;

/// Max relative elementwise deviation between two packed matrices.
double max_rel_diff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double scale = std::abs(a[k]) + 1e-300;
    worst = std::max(worst, std::abs(a[k] - b[k]) / scale);
  }
  return worst;
}

double median_of(int repeats, const auto& run) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    run();
    seconds.push_back(timer.seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

double best_of(int repeats, const auto& run) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    run();
    best = std::min(best, timer.seconds());
  }
  return best;
}

soil::LayeredSoil bench_soil() { return soil::LayeredSoil::two_layer(0.005, 0.016, 1.0); }

bem::BemModel uniform_bench_model(std::size_t cells) {
  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells);
  spec.length_y = 5.0 * static_cast<double>(cells);
  spec.cells_x = cells;
  spec.cells_y = cells;
  return bem::BemModel(geom::Mesh::build(geom::make_rect_grid(spec)), bench_soil());
}

/// Cross-candidate warm mode: the design_search access pattern — a ladder of
/// similar grids replaying one warm cache — reduced to its cache behaviour.
int run_warm_ladder(std::size_t cells) {
  const std::size_t first = cells > 6 ? cells - 6 : 2;

  bem::CongruenceCache warm_cache(bench_soil());  // serial: isolates cache effects
  bool warm_beats_cold = true;
  std::size_t candidate = 0;
  for (std::size_t c = first; c <= cells; c += 2, ++candidate) {
    const bem::BemModel model = uniform_bench_model(c);

    WallTimer warm_timer;
    const bem::AssemblyResult warm_result = bem::assemble(model, {}, {.cache = &warm_cache});
    const double warm_seconds = warm_timer.seconds();
    const bem::CongruenceCacheStats warm = warm_result.cache_stats;

    // Cold reference: the same candidate against a fresh cache.
    bem::CongruenceCache cold_cache(model.soil());
    bem::AssemblyResult cold;
    WallTimer cold_timer;
    cold = bem::assemble(model, {}, {.cache = &cold_cache});
    const double cold_seconds = cold_timer.seconds();
    const bem::CongruenceCacheStats cold_stats = cold.cache_stats;

    if (candidate > 0 && warm.hit_rate() <= cold_stats.hit_rate()) warm_beats_cold = false;
    std::printf(
        "{\"bench\":\"cache_warm\",\"candidate\":%zu,\"cells\":%zu,\"elements\":%zu,"
        "\"warm_hits\":%zu,\"warm_misses\":%zu,\"warm_hit_rate\":%.4f,"
        "\"cold_hit_rate\":%.4f,\"cache_entries\":%zu,"
        "\"warm_seconds\":%.6f,\"cold_seconds\":%.6f,"
        "\"hw_concurrency\":%zu,\"pool_threads\":1}\n",
        candidate, c, model.element_count(), warm.hits, warm.misses, warm.hit_rate(),
        cold_stats.hit_rate(), warm.entries, warm_seconds, cold_seconds,
        par::hardware_threads());
  }
  if (!warm_beats_cold) {
    std::fprintf(stderr, "bench_cache --warm: a warm candidate did not beat its cold-start "
                         "hit rate\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cells = 12;
  std::size_t max_threads = 1;
  bool check = false;
  bool warm = false;
  std::size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--warm") == 0) {
      warm = true;
    } else if (positional == 0) {
      cells = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    } else {
      max_threads = std::strtoul(argv[i], nullptr, 10);
      ++positional;
    }
  }
  if (cells == 0 || max_threads == 0) {
    std::fprintf(stderr,
                 "usage: bench_cache [cells >= 1] [max_threads >= 1] [--check] [--warm]\n");
    return 1;
  }
  if (warm && check) {
    // Refuse rather than silently skip the parity gate: the two modes are
    // separate CI steps with separate pass criteria.
    std::fprintf(stderr, "bench_cache: --check and --warm are mutually exclusive modes\n");
    return 1;
  }
  if (warm) return run_warm_ladder(cells);  // serial; max_threads not used

  const auto soil = bench_soil();
  const double side = 5.0 * static_cast<double>(cells);

  geom::RectGridSpec uniform_spec;
  uniform_spec.length_x = side;
  uniform_spec.length_y = side;
  uniform_spec.cells_x = cells;
  uniform_spec.cells_y = cells;

  geom::GradedRectGridSpec graded_spec;
  graded_spec.length_x = side;
  graded_spec.length_y = side;
  graded_spec.cells_x = cells;
  graded_spec.cells_y = cells;
  graded_spec.grading = 2.2;

  struct GridCase {
    const char* name;
    bem::BemModel model;
  };
  const GridCase cases[] = {
      {"uniform", bem::BemModel(geom::Mesh::build(geom::make_rect_grid(uniform_spec)), soil)},
      {"graded",
       bem::BemModel(geom::Mesh::build(geom::make_graded_rect_grid(graded_spec)), soil)},
  };

  bool parity_ok = true;
  for (const GridCase& grid : cases) {
    const std::size_t m = grid.model.element_count();
    double seconds_warm_1 = 0.0;
    for (std::size_t threads = 1; threads <= max_threads; threads *= 2) {
      par::ThreadPool pool(threads);
      bem::AssemblyExecution execution;
      execution.num_threads = threads;
      execution.schedule = par::Schedule::guided(1);
      if (threads > 1) execution.pool = &pool;

      bem::AssemblyResult off;
      const double seconds_off =
          best_of(2, [&] { off = bem::assemble(grid.model, {}, execution); });

      bem::AssemblyResult on;
      // Each repetition owns a cold cache, so the timing includes the
      // signature hashing and warm-up integrations the cache really costs.
      const double seconds_on = best_of(2, [&] {
        bem::CongruenceCache cache(grid.model.soil());
        execution.cache = &cache;
        on = bem::assemble(grid.model, {}, execution);
        execution.cache = nullptr;
      });

      // Warm re-assembly: fill one cache, then time passes that replay it.
      bem::CongruenceCache warm_cache(grid.model.soil());
      execution.cache = &warm_cache;
      (void)bem::assemble(grid.model, {}, execution);
      const double seconds_warm =
          median_of(21, [&] { (void)bem::assemble(grid.model, {}, execution); });
      execution.cache = nullptr;
      if (threads == 1) seconds_warm_1 = seconds_warm;

      const double diff = max_rel_diff(off.matrix.packed(), on.matrix.packed());
      const bool ok = diff <= 1e-12;
      parity_ok = parity_ok && ok;
      std::printf(
          "{\"bench\":\"cache\",\"grid\":\"%s\",\"elements\":%zu,\"pairs\":%zu,"
          "\"threads\":%zu,\"hits\":%zu,\"misses\":%zu,\"entries\":%zu,"
          "\"hit_rate\":%.4f,\"seconds_off\":%.6f,\"seconds_on\":%.6f,"
          "\"speedup\":%.3f,\"seconds_warm\":%.6f,\"warm_speedup_vs_1\":%.3f,"
          "\"max_rel_diff\":%.3e,\"parity_ok\":%s,"
          "\"matrix_bytes_resident\":%zu,\"hw_concurrency\":%zu,\"pool_threads\":%zu,"
          "\"peak_rss_kb\":%zu}\n",
          grid.name, m, on.element_pairs, threads, on.cache_stats.hits, on.cache_stats.misses,
          on.cache_stats.entries, on.cache_stats.hit_rate(), seconds_off, seconds_on,
          seconds_off / seconds_on, seconds_warm, seconds_warm_1 / seconds_warm, diff,
          ok ? "true" : "false",
          on.matrix.tile_stats().resident_bytes, par::hardware_threads(), threads,
          peak_rss_bytes() / 1024);
    }
  }

  if (check && !parity_ok) {
    std::fprintf(stderr, "bench_cache: cache-on assembly deviates from cache-off by more "
                         "than 1e-12 relative\n");
    return 1;
  }
  return 0;
}
