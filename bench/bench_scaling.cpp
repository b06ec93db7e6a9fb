// Strong-scaling bench for the two heavy phases: fused streaming assembly
// and the blocked Cholesky factorization (plus PCG), emitting one JSON line
// per (phase, threads) so runs can be archived and diffed over time
// (BENCH_scaling.json at the repo root holds the reference trajectory).
//
// Usage: bench_scaling [cells] [max_threads] [synthetic_n]
//   cells        grid cells per side (default 12 -> 312 elements)
//   max_threads  thread counts 1, 2, 4, ... up to this value (default 4)
//   synthetic_n  size of the synthetic SPD factorization case (default 1024;
//                the grid's own system is solved too, but a >=200-element
//                grid yields only a few hundred DoFs, too small to show
//                factorization scaling on its own)
//
// The JSON lines feed CI's bench-regression gate (bench/compare_bench.py
// vs bench/baselines/, per-phase timings at matching pool_threads); see
// bench/baselines/README.md for re-baselining.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "src/bem/assembly.hpp"
#include "src/bem/solver.hpp"
#include "src/common/resource_usage.hpp"
#include "src/common/timer.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/la/cholesky.hpp"
#include "src/la/sym_matrix.hpp"
#include "src/parallel/thread_pool.hpp"
#include "tests/support/random_spd.hpp"

namespace {

using namespace ebem;

struct PhaseTimes {
  std::vector<std::size_t> threads;
  std::vector<double> seconds;
};

void emit(const char* phase, std::size_t threads, std::size_t elements, std::size_t dofs,
          double seconds, double baseline_seconds, std::size_t matrix_bytes_resident) {
  std::printf(
      "{\"bench\":\"scaling\",\"phase\":\"%s\",\"threads\":%zu,\"elements\":%zu,"
      "\"dofs\":%zu,\"seconds\":%.6f,\"speedup\":%.3f,"
      "\"matrix_bytes_resident\":%zu,\"hw_concurrency\":%zu,\"pool_threads\":%zu,"
      "\"peak_rss_kb\":%zu}\n",
      phase, threads, elements, dofs, seconds, baseline_seconds / seconds,
      matrix_bytes_resident, par::hardware_threads(), threads, peak_rss_bytes() / 1024);
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

}  // namespace

int main(int argc, char** argv) {
  const std::size_t cells = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 12;
  const std::size_t max_threads = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
  const std::size_t synthetic_n = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 1024;
  if (cells == 0 || max_threads == 0 || synthetic_n == 0) {
    std::fprintf(stderr, "usage: bench_scaling [cells >= 1] [max_threads >= 1] [synthetic_n >= 1]\n");
    return 1;
  }

  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells);
  spec.length_y = 5.0 * static_cast<double>(cells);
  spec.cells_x = cells;
  spec.cells_y = cells;
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const bem::BemModel model(geom::Mesh::build(geom::make_rect_grid(spec)), soil);
  const std::size_t m = model.element_count();

  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  // --- Phase 1: fused streaming assembly on the grid. -----------------------
  double assembly_base = 0.0;
  bem::AssemblyResult system;
  for (const std::size_t threads : thread_counts) {
    par::ThreadPool pool(threads);
    bem::AssemblyExecution execution;
    execution.num_threads = threads;
    execution.schedule = par::Schedule::guided(1);
    execution.pool = &pool;
    const double seconds = best_of(2, [&] { system = bem::assemble(model, {}, execution); });
    if (threads == 1) assembly_base = seconds;
    emit("assembly", threads, m, system.matrix.size(), seconds, assembly_base,
         system.matrix.tile_stats().resident_bytes);
  }

  // --- Phase 2: blocked Cholesky on the grid system and a synthetic SPD. ----
  double grid_chol_base = 0.0;
  for (const std::size_t threads : thread_counts) {
    par::ThreadPool pool(threads);
    const la::CholeskyOptions options{.block = 64, .pool = threads > 1 ? &pool : nullptr};
    const double seconds =
        best_of(3, [&] { const la::Cholesky factor(system.matrix, options); (void)factor; });
    if (threads == 1) grid_chol_base = seconds;
    emit("cholesky_grid", threads, m, system.matrix.size(), seconds, grid_chol_base,
         system.matrix.tile_stats().resident_bytes);
  }

  const la::SymMatrix synthetic = la::testing::random_spd(synthetic_n, 42);
  double synth_chol_base = 0.0;
  for (const std::size_t threads : thread_counts) {
    par::ThreadPool pool(threads);
    const la::CholeskyOptions options{.block = 64, .pool = threads > 1 ? &pool : nullptr};
    const double seconds =
        best_of(3, [&] { const la::Cholesky factor(synthetic, options); (void)factor; });
    if (threads == 1) synth_chol_base = seconds;
    emit("cholesky_synthetic", threads, 0, synthetic_n, seconds, synth_chol_base,
         synthetic.tile_stats().resident_bytes);
  }

  // --- Phase 3: PCG on the grid system (parallel matvec). -------------------
  double pcg_base = 0.0;
  for (const std::size_t threads : thread_counts) {
    par::ThreadPool pool(threads);
    const bem::SolveExecution execution{.pool = threads > 1 ? &pool : nullptr,
                                        .kind = bem::SolverKind::kPcg};
    const double seconds =
        best_of(3, [&] { (void)bem::solve(system.matrix, system.rhs, execution); });
    if (threads == 1) pcg_base = seconds;
    emit("pcg", threads, m, system.matrix.size(), seconds, pcg_base,
         system.matrix.tile_stats().resident_bytes);
  }
  return 0;
}
