// OpenMP backend: schedule mapping and numerical equivalence with the
// portable thread-pool backend (the paper's actual parallelization mode).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "src/bem/assembly.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/parallel/openmp_backend.hpp"

namespace ebem {
namespace {

TEST(OpenMpBackend, ReportsAvailability) {
#ifdef EBEM_HAS_OPENMP
  EXPECT_TRUE(par::openmp_available());
#else
  EXPECT_FALSE(par::openmp_available());
#endif
}

TEST(OpenMpBackend, VisitsEveryIndexOnce) {
  for (const par::Schedule schedule :
       {par::Schedule::static_blocked(), par::Schedule::static_chunked(4),
        par::Schedule::dynamic(1), par::Schedule::guided(2)}) {
    std::vector<std::atomic<int>> visits(500);
    par::openmp_parallel_for(3, visits.size(), schedule,
                             [&](std::size_t i, std::size_t) { visits[i].fetch_add(1); });
    for (std::size_t i = 0; i < visits.size(); ++i) EXPECT_EQ(visits[i].load(), 1) << i;
  }
}

TEST(OpenMpBackend, ZeroIterationsIsANoop) {
  bool touched = false;
  par::openmp_parallel_for(2, 0, par::Schedule::dynamic(1),
                           [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(OpenMpBackend, AssemblyMatchesThreadPool) {
  geom::RectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  const bem::BemModel model(geom::Mesh::build(geom::make_rect_grid(spec)),
                            soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));

  bem::AssemblyExecution pool_execution;
  pool_execution.num_threads = 4;
  pool_execution.backend = bem::Backend::kThreadPool;
  const bem::AssemblyResult pool_result = bem::assemble(model, {}, pool_execution);

  bem::AssemblyExecution omp_execution = pool_execution;
  omp_execution.backend = bem::Backend::kOpenMp;
  const bem::AssemblyResult omp_result = bem::assemble(model, {}, omp_execution);

  // Segments flush concurrently, so the two backends may differ only by
  // floating-point accumulation order.
  const auto a = pool_result.matrix.packed();
  const auto b = omp_result.matrix.packed();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k], b[k], 1e-12 * std::abs(a[k]) + 1e-15) << k;
  }
}

TEST(OpenMpBackend, InnerLoopModeAlsoMatches) {
  geom::RectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  const bem::BemModel model(geom::Mesh::build(geom::make_rect_grid(spec)),
                            soil::LayeredSoil::uniform(0.02));

  const bem::AssemblyResult sequential = bem::assemble(model, {});

  bem::AssemblyExecution omp_execution;
  omp_execution.num_threads = 2;
  omp_execution.backend = bem::Backend::kOpenMp;
  omp_execution.loop = bem::ParallelLoop::kInner;
  const bem::AssemblyResult omp_result = bem::assemble(model, {}, omp_execution);

  const auto a = sequential.matrix.packed();
  const auto b = omp_result.matrix.packed();
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k], b[k], 1e-12 * std::abs(a[k]) + 1e-15) << k;
  }
}

}  // namespace
}  // namespace ebem
