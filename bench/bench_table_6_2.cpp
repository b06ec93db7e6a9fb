// Table 6.2: speed-up of the outer-loop parallelization for every schedule
// and chunk the paper studies, at 1/2/4/8 processors.
//
// Method (DESIGN.md §4.1): the per-column costs of the Barbera two-layer
// matrix generation are *measured* sequentially, then replayed through an
// exact model of static/dynamic/guided chunked scheduling, so the table
// covers any processor count p. Measured wall-clock speed-ups are
// observable only for p <= hw_concurrency; the simulated makespans are the
// machine-independent content of the table. A real threaded run is
// included as a numerical cross-check.
#include <cstdio>

#include "src/ebem.hpp"

int main() {
  using namespace ebem;
  const cad::BarberaCase barbera = cad::barbera_case();

  cad::DesignOptions options;
  options.analysis.gpr = barbera.gpr;
  options.analysis.assembly.series.tolerance = 1e-6;
  engine::ExecutionConfig measure_config;
  measure_config.measure_column_costs = true;
  // Cache off: the measured column costs must reflect the real integration
  // work the schedule simulator is calibrated against.
  measure_config.use_congruence_cache = false;
  engine::Engine measure_engine(measure_config);
  cad::GroundingSystem system(barbera.conductors, barbera.two_layer_soil, options);
  const cad::Report& report = system.analyze(measure_engine);
  const std::vector<double>& costs = report.column_costs;
  std::printf("Table 6.2 — Barbera two-layer, outer-loop parallelization speed-ups\n");
  std::printf("(measured %zu column costs, simulated schedules; paper values in header)\n\n",
              costs.size());

  const struct {
    par::Schedule schedule;
    double paper[4];  // paper's 1, 2, 4, 8 processor speed-ups
  } rows[] = {
      {par::Schedule::static_blocked(), {1.01, 1.32, 2.32, 4.38}},
      {par::Schedule::static_chunked(64), {1.02, 1.76, 1.86, 3.55}},
      {par::Schedule::static_chunked(16), {1.02, 1.94, 3.59, 6.23}},
      {par::Schedule::static_chunked(4), {1.01, 2.01, 3.96, 7.36}},
      {par::Schedule::static_chunked(1), {1.02, 2.03, 4.03, 7.99}},
      {par::Schedule::dynamic(64), {1.02, 2.02, 3.56, 3.55}},
      {par::Schedule::dynamic(16), {1.02, 2.02, 4.08, 7.87}},
      {par::Schedule::dynamic(4), {1.01, 2.04, 3.99, 7.90}},
      {par::Schedule::dynamic(1), {1.02, 2.03, 4.09, 8.05}},
      {par::Schedule::guided(64), {1.02, 1.97, 3.56, 3.56}},
      {par::Schedule::guided(16), {1.02, 1.99, 3.96, 8.03}},
      {par::Schedule::guided(4), {1.02, 2.01, 4.11, 7.93}},
      {par::Schedule::guided(1), {1.02, 2.07, 3.95, 8.38}},
  };

  io::Table table({"Schedule ()", "p=1", "p=2", "p=4", "p=8", "paper p=8"});
  for (const auto& row : rows) {
    std::vector<std::string> cells{par::to_string(row.schedule)};
    for (std::size_t p : {1u, 2u, 4u, 8u}) {
      cells.push_back(io::Table::num(par::simulated_speedup(costs, p, row.schedule), 2));
    }
    cells.push_back(io::Table::num(row.paper[3], 2));
    table.add_row(cells);
  }
  std::printf("%s\n", table.to_string().c_str());

  // Real threaded cross-check: same numerics, identical matrix.
  engine::ExecutionConfig threaded_config;
  threaded_config.num_threads = 2;
  threaded_config.schedule = par::Schedule::dynamic(1);
  threaded_config.use_congruence_cache = false;  // bitwise check below
  engine::Engine threaded_engine(threaded_config);
  cad::GroundingSystem check(barbera.conductors, barbera.two_layer_soil, options);
  const cad::Report& threaded_report = check.analyze(threaded_engine);
  std::printf("Threaded run (2 threads, Dynamic,1): Req = %.6f vs sequential %.6f — %s\n",
              threaded_report.equivalent_resistance, report.equivalent_resistance,
              threaded_report.equivalent_resistance == report.equivalent_resistance
                  ? "identical"
                  : "DIFFERS");
  std::printf("\nShapes to check vs the paper: Dynamic/Guided with small chunks reach ~p;\n"
              "plain Static stalls near p/2; chunk 64 collapses at p=8 (too few chunks).\n");
  return 0;
}
