// CAD facade: end-to-end GroundingSystem behaviour.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "src/common/error.hpp"
#include "src/cad/cases.hpp"
#include "src/cad/grounding_system.hpp"
#include "src/geom/grid_builder.hpp"

namespace ebem::cad {
namespace {

std::vector<geom::Conductor> small_grid() {
  geom::RectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  return geom::make_rect_grid(spec);
}

TEST(GroundingSystem, AnalyzeProducesConsistentReport) {
  DesignOptions options;
  options.analysis.gpr = 10e3;
  GroundingSystem system(small_grid(), soil::LayeredSoil::uniform(0.02), options);
  const Report& report = system.analyze();
  EXPECT_GT(report.equivalent_resistance, 0.0);
  EXPECT_NEAR(report.total_current, 10e3 / report.equivalent_resistance, 1e-6);
  EXPECT_EQ(report.gpr, 10e3);
  EXPECT_GT(report.element_count, 0u);
  EXPECT_GT(report.dof_count, 0u);
  EXPECT_GT(report.phases.wall_seconds(Phase::kMatrixGeneration), 0.0);
}

TEST(GroundingSystem, ReportBeforeAnalyzeThrows) {
  GroundingSystem system(small_grid(), soil::LayeredSoil::uniform(0.02));
  EXPECT_THROW((void)system.report(), ebem::InvalidArgument);
  EXPECT_THROW((void)system.solution(), ebem::InvalidArgument);
  EXPECT_THROW((void)system.potential_evaluator(), ebem::InvalidArgument);
}

TEST(GroundingSystem, SummaryMentionsKeyQuantities) {
  GroundingSystem system(small_grid(), soil::LayeredSoil::uniform(0.02));
  system.analyze();
  const std::string summary = system.report().summary();
  EXPECT_NE(summary.find("Equivalent resistance"), std::string::npos);
  EXPECT_NE(summary.find("Matrix Generation"), std::string::npos);
}

TEST(GroundingSystem, RodsAcrossInterfaceAreSplitDuringPreprocessing) {
  auto grid = small_grid();
  geom::RodSpec rod;
  rod.length = 1.5;
  geom::add_rods(grid, {{0, 0, 0}, {20, 20, 0}}, 0.8, rod);
  // Upper layer 1.0 m: rods span -0.8..-2.3 and must be split at -1.0.
  GroundingSystem system(grid, soil::LayeredSoil::two_layer(0.0025, 0.02, 1.0));
  // 12 bars + 2 rods -> each rod split into 2 elements.
  EXPECT_EQ(system.model().element_count(), 12u + 2u * 2u);
  const Report& report = system.analyze();
  EXPECT_GT(report.equivalent_resistance, 0.0);
}

TEST(GroundingSystem, FromFileRunsFullPipeline) {
  const std::string path = testing::TempDir() + "/ebem_test_grid.txt";
  {
    std::ofstream os(path);
    os << "soil layer 0.005 1.0\n"
       << "soil layer 0.016 0\n"
       << "conductor 0 0 -0.8 10 0 -0.8 0.006\n"
       << "conductor 0 0 -0.8 0 10 -0.8 0.006\n"
       << "rod 0 0 0.8 1.5 0.007\n";
  }
  GroundingSystem system = GroundingSystem::from_file(path);
  const Report& report = system.analyze();
  EXPECT_GT(report.equivalent_resistance, 0.0);
  EXPECT_GT(report.phases.wall_seconds(Phase::kDataInput), 0.0);
  std::remove(path.c_str());
}

TEST(GroundingSystem, PotentialEvaluatorUsesActualGpr) {
  DesignOptions options;
  options.analysis.gpr = 10e3;
  GroundingSystem system(small_grid(), soil::LayeredSoil::uniform(0.02), options);
  system.analyze();
  const auto evaluator = system.potential_evaluator();
  const double v = evaluator.at({10, 10, 0});
  EXPECT_GT(v, 1000.0);  // potentials scale with the 10 kV GPR
  EXPECT_LT(v, 10e3);
}

TEST(GroundingSystem, PotentialEvaluatorTakesTheSystemsPhysics) {
  // The evaluator must integrate under the series/Hankel controls the
  // system was solved with, whatever the caller passes.
  GroundingSystem system(small_grid(), soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));
  system.analyze();
  const bem::AssemblyOptions& assembly = system.options().analysis.assembly;
  post::PotentialOptions own;
  own.integrator = assembly.integrator;
  own.series = assembly.series;
  own.hankel = assembly.hankel;
  post::PotentialOptions loose = own;
  loose.series.tolerance = 10.0 * assembly.series.tolerance;

  const std::vector<geom::Vec3> points{{10, 10, 0}, {25, 5, 0}, {-3, 12, 0}, {40, 40, 0}};
  const std::vector<double> expected =
      post::PotentialEvaluator(system.model(), system.solution().sigma, own).at(points);
  EXPECT_EQ(system.potential_evaluator(loose).at(points), expected);
  // The looser series really changes the values, so the check has teeth.
  EXPECT_NE(post::PotentialEvaluator(system.model(), system.solution().sigma, loose).at(points),
            expected);
}

TEST(GroundingSystem, MeasuredColumnCostsForwarded) {
  engine::ExecutionConfig config;
  config.measure_column_costs = true;
  engine::Engine engine(config);
  GroundingSystem system(small_grid(), soil::LayeredSoil::uniform(0.02));
  const Report& report = system.analyze(engine);
  EXPECT_EQ(report.column_costs.size(), system.model().element_count());
}

TEST(GroundingSystem, EngineRunMatchesSerialShimAndWarmsTheCache) {
  GroundingSystem cold(small_grid(), soil::LayeredSoil::uniform(0.02));
  const double serial = cold.analyze().equivalent_resistance;

  engine::Engine engine;  // default config: serial, warm cache on
  GroundingSystem warm(small_grid(), soil::LayeredSoil::uniform(0.02));
  const Report& first = warm.analyze(engine);
  EXPECT_NEAR(first.equivalent_resistance, serial, 1e-12 * serial);
  EXPECT_GT(first.cache_stats.misses, 0u);

  // Re-running the same system against the warm engine replays every pair.
  const Report& second = warm.analyze(engine);
  EXPECT_NEAR(second.equivalent_resistance, serial, 1e-12 * serial);
  EXPECT_EQ(second.cache_stats.misses, 0u);
  EXPECT_GT(second.cache_stats.hits, 0u);
  // The session report accumulated both runs' phase timings.
  EXPECT_GT(engine.report().cpu_seconds(Phase::kMatrixGeneration), 0.0);
}

TEST(Cases, BarberaMatchesPaperDiscretizationScale) {
  const BarberaCase c = barbera_case();
  // Paper: 408 segments. The parametric triangle lands within a few percent.
  EXPECT_NEAR(static_cast<double>(c.conductors.size()), 408.0, 25.0);
  EXPECT_DOUBLE_EQ(c.gpr, 10e3);
  EXPECT_EQ(c.two_layer_soil.layer_count(), 2u);
  const auto stats = geom::grid_stats(c.conductors);
  EXPECT_NEAR(stats.area_bbox, 89.0 * 143.0, 1.0);
  EXPECT_DOUBLE_EQ(stats.min_z, -0.8);
}

TEST(Cases, BalaidosMatchesPaperInventory) {
  const BalaidosCase c = balaidos_case();
  // Paper: 107 conductors + 67 rods; our regular layout gives 110 + 67.
  EXPECT_EQ(c.conductors.size(), 110u + 67u);
  std::size_t rods = 0;
  for (const auto& conductor : c.conductors) {
    if (conductor.a.x == conductor.b.x && conductor.a.y == conductor.b.y) ++rods;
  }
  EXPECT_EQ(rods, 67u);
  EXPECT_DOUBLE_EQ(c.soil_b.interface_depth(0), 0.70);
  EXPECT_DOUBLE_EQ(c.soil_c.interface_depth(0), 1.00);
}

}  // namespace
}  // namespace ebem::cad
