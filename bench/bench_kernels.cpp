// Kernel-evaluation bench: the per-pair cost of the integrator's segment
// kernels, scalar vs batched, per kernel family — the "make cache misses
// fast too" measurement. The congruence cache makes repeated pair
// geometries cheap; this bench tracks what a *miss* costs, which is what
// the batched SoA kernels (src/bem/segment_integrals,
// src/common/simd.hpp) attack.
//
// Families:
//  * uniform    — single-layer soil, 2-term image sweep (kernel cost is
//                 dominated by the segment integrals themselves);
//  * two_layer  — the paper's layered case, O(100)-term image sweeps (the
//                 per-term hoisting and SoA sweep dominate);
//  * hankel     — three-layer soil through the spectral kernel's Gauss
//                 path (panel-batched exponential tables + small in-place
//                 solves inside evaluate_rho).
//
// Modes (uniform / two_layer):
//  * scalar  — IntegratorOptions::SegmentEval::kScalarReference, the
//              pre-batching asinh formulation, one Gauss point at a time;
//  * batched — the default SoA path (one image-term sweep over the whole
//              Gauss-point batch);
//  * warm    — batched + congruence cache, the miss-vs-hit contrast
//              (hit_rate reported).
// The hankel family reports the batched spectral path (there is no scalar
// toggle; the batching lives inside evaluate_rho) plus its parity against
// the two-layer image-series oracle.
//
// One JSON line per (family, mode): seconds (best of 2), ns per element
// pair (per evaluation for hankel), speedup and max packed-entry deviation
// vs the family's scalar mode, pool_threads and peak RSS. The lines feed
// CI's bench-regression gate (bench/compare_bench.py against
// bench/baselines/bench_kernels.jsonl; see bench/baselines/README.md).
//
// Usage: bench_kernels [cells] [--check]
//   cells    grid cells per side (default 12 -> 312 elements; --check
//            defaults to 6 so sanitizer jobs stay fast)
//   --check  CI parity smoke: exit nonzero unless, per family, batched
//            and warm match scalar to <= 1e-12 relative on every packed
//            entry, and the hankel kernel matches the image-series oracle
//            to <= 1e-4 on a two-layer stack. Timing is reported but never gated here — the Release
//            bench job gates seconds against the committed baseline.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "src/bem/assembly.hpp"
#include "src/common/resource_usage.hpp"
#include "src/common/timer.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/soil/hankel_kernel.hpp"
#include "src/soil/image_series.hpp"

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

double best_of(int repeats, const auto& run) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    WallTimer timer;
    run();
    best = std::min(best, timer.seconds());
  }
  return best;
}

bem::BemModel grid_model(std::size_t cells, const soil::LayeredSoil& soil) {
  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells);
  spec.length_y = 5.0 * static_cast<double>(cells);
  spec.cells_x = cells;
  spec.cells_y = cells;
  return bem::BemModel(geom::Mesh::build(geom::make_rect_grid(spec)), soil);
}

void print_line(const char* family, const char* mode, std::size_t cells, std::size_t elements,
                std::size_t pairs, double seconds, double speedup, double diff,
                double hit_rate) {
  std::printf(
      "{\"bench\":\"kernels\",\"family\":\"%s\",\"mode\":\"%s\",\"cells\":%zu,"
      "\"elements\":%zu,\"pairs\":%zu,\"threads\":1,\"seconds\":%.6f,"
      "\"ns_per_pair\":%.1f,\"speedup_vs_scalar\":%.3f,"
      "\"max_rel_diff_vs_scalar\":%.3e,\"hit_rate\":%.4f,"
      "\"hw_concurrency\":%zu,\"pool_threads\":1,\"peak_rss_kb\":%zu}\n",
      family, mode, cells, elements, pairs, seconds,
      seconds * 1e9 / static_cast<double>(std::max<std::size_t>(1, pairs)), speedup, diff,
      hit_rate, par::hardware_threads(), peak_rss_bytes() / 1024);
}

/// Scalar / batched / warm sweep of one image-kernel family.
bool run_family(const char* family, std::size_t cells, const soil::LayeredSoil& soil) {
  const bem::BemModel model = grid_model(cells, soil);

  bem::AssemblyOptions scalar_options;
  scalar_options.integrator.segment_eval = bem::SegmentEval::kScalarReference;
  bem::AssemblyResult scalar;
  const double scalar_seconds =
      best_of(2, [&] { scalar = bem::assemble(model, scalar_options); });
  print_line(family, "scalar", cells, model.element_count(), scalar.element_pairs,
             scalar_seconds, 1.0, 0.0, 0.0);

  bem::AssemblyResult batched;
  const double batched_seconds = best_of(2, [&] { batched = bem::assemble(model); });
  const double batched_diff = max_rel_diff(scalar.matrix.packed(), batched.matrix.packed());
  print_line(family, "batched", cells, model.element_count(), batched.element_pairs,
             batched_seconds, scalar_seconds / batched_seconds, batched_diff, 0.0);

  bem::AssemblyResult warm;
  // Each repetition owns a cold cache so the timing includes the signature
  // hashing and warm-up integrations the cache really costs (as in
  // bench_cache); the batched kernels price the misses.
  const double warm_seconds = best_of(2, [&] {
    bem::CongruenceCache cache(model.soil());
    bem::AssemblyExecution execution;
    execution.cache = &cache;
    warm = bem::assemble(model, {}, execution);
  });
  const double warm_diff = max_rel_diff(scalar.matrix.packed(), warm.matrix.packed());
  print_line(family, "warm", cells, model.element_count(), warm.element_pairs, warm_seconds,
             scalar_seconds / warm_seconds, warm_diff, warm.cache_stats.hit_rate());

  return batched_diff <= 1e-12 && warm_diff <= 1e-12;
}

/// Spectral-kernel timing plus the two-layer oracle cross-check. The
/// sample set spans same-layer, cross-layer and near-interface geometry.
bool run_hankel(std::size_t cells) {
  const soil::LayeredSoil three({soil::Layer{1.0 / 400.0, 1.5}, soil::Layer{1.0 / 25.0, 3.0},
                                 soil::Layer{1.0 / 250.0, 0.0}});
  const soil::HankelKernel kernel(three);

  std::vector<geom::Vec3> fields;
  std::vector<geom::Vec3> sources;
  // Depths chosen off every interface (1.0 m on the two-layer oracle stack,
  // 1.5 / 4.5 m on the three-layer stack): a source *exactly* on an
  // interface degenerates the spectral boundary system (the one-sided
  // source-slope sign is evaluated at its own kink — a long-standing edge
  // of the formulation, see hankel_kernel.hpp).
  const double depths[] = {-0.2, -0.9, -2.1, -4.8};
  const double rhos[] = {0.3, 1.0, 4.0, 15.0};
  for (const double zf : depths) {
    for (const double zs : depths) {
      for (const double rho : rhos) {
        fields.push_back({rho, 0.0, zf});
        sources.push_back({0.0, 0.0, zs});
      }
    }
  }

  double sink = 0.0;
  const double seconds = best_of(2, [&] {
    for (std::size_t k = 0; k < fields.size(); ++k) {
      sink += kernel.evaluate_regularized(fields[k], sources[k], 0.01);
    }
  });
  if (!(sink == sink)) return false;  // keep the sweep observable

  // Oracle parity: on a two-layer stack the spectral kernel and the image
  // series must agree (each validates the other; see the kernel headers).
  const soil::LayeredSoil two = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const soil::HankelKernel hankel_two(two);
  const soil::ImageKernel image_two(two);
  double parity = 0.0;
  for (std::size_t k = 0; k < fields.size(); ++k) {
    const double a = hankel_two.evaluate_regularized(fields[k], sources[k], 0.01);
    const double b = image_two.evaluate_regularized(fields[k], sources[k], 0.01);
    parity = std::max(parity, std::abs(a - b) / (std::abs(b) + 1e-300));
  }

  print_line("hankel", "batched", cells, 0, fields.size(), seconds, 1.0, parity, 0.0);
  return parity <= 1e-4;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cells = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      cells = std::strtoul(argv[i], nullptr, 10);
    }
  }
  if (cells == 0) cells = check ? 6 : 12;
  if (cells < 2) {
    std::fprintf(stderr, "usage: bench_kernels [cells >= 2] [--check]\n");
    return 1;
  }

  bool ok = true;
  ok = run_family("uniform", cells, soil::LayeredSoil::uniform(0.01)) && ok;
  ok = run_family("two_layer", cells, soil::LayeredSoil::two_layer(0.005, 0.016, 1.0)) && ok;
  ok = run_hankel(cells) && ok;

  if (check && !ok) {
    std::fprintf(stderr,
                 "bench_kernels: a kernel mode broke parity (batched/warm vs scalar > 1e-12 "
                 "or hankel vs image oracle > 1e-4)\n");
    return 1;
  }
  return 0;
}
