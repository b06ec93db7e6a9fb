// The paper's evaluation in one checked run: Figs. 5.1-5.4, Tables 5.1 and
// 6.1-6.3, Fig. 6.1 and the FD-vs-BEM argument of §1/§3. One serial, cache-off
// engine measuring per-column matrix-generation costs analyzes each Balaidos
// soil and Barbera two-layer once; every section reads those runs. Speed-ups
// replay the measured costs through an exact model of chunked scheduling.
// Each checked row prints the paper's value, ours and the tolerance (those of
// tests/test_integration.cpp, looser where a row depends on timing). Writes
// the plan and surface-potential CSVs to the working directory.
//
// Usage: bench_paper [--check]    (--check: exit 1 if a row is out of tolerance)
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/ebem.hpp"

namespace {

using namespace ebem;
using io::Table;

/// Prints one line per checked row and remembers the rows out of tolerance.
struct Checks {
  std::size_t rows = 0;
  std::vector<std::string> failed;
  void row(const std::string& name, const std::string& paper, const std::string& ours,
           const std::string& tolerance, bool ok) {
    const char* verdict = ok ? " ok " : "FAIL";
    std::printf("  [%s] %-38s paper %-24s ours %-24s %s\n", verdict, name.c_str(), paper.c_str(),
                ours.c_str(), tolerance.c_str());
    ++rows;
    if (!ok) failed.push_back(name);
  }

  /// Ours within `tolerance` (relative) of the paper's value.
  void near(const std::string& name, double paper, double ours, double tolerance, int digits = 4) {
    const std::string bound = "<= " + Table::num(100.0 * tolerance, 0) + "%";
    const bool ok = std::abs(ours - paper) <= tolerance * std::abs(paper);
    row(name, Table::num(paper, digits), Table::num(ours, digits), bound, ok);
  }
};

/// "a op b op c" with fixed precision, for the ordering rows.
std::string chain(const std::array<double, 3>& values, const char* op, int precision) {
  return Table::num(values[0], precision) + op + Table::num(values[1], precision) + op +
         Table::num(values[2], precision);
}

cad::DesignOptions paper_options(double gpr) {
  cad::DesignOptions options;
  options.analysis.gpr = gpr;
  options.analysis.assembly.series.tolerance = 1e-6;
  return options;
}

void write_plan(const char* path, const std::vector<geom::Conductor>& grid) {
  std::ofstream os(path);
  os << "ax,ay,az,bx,by,bz,radius\n";
  for (const auto& c : grid) {
    os << c.a.x << ',' << c.a.y << ',' << c.a.z << ',' << c.b.x << ',' << c.b.y << ',' << c.b.z
       << ',' << c.radius << '\n';
  }
}

/// One soil model of a paper case with the paper's Req (Ohm) and current (kA).
struct PaperModel {
  const char* name;
  const char* csv;
  soil::LayeredSoil soil;
  double paper_req;
  double paper_current;
};

/// Plan window and resolution of a surface-potential map, and its profile line.
struct SurfaceView {
  double x0, x1, y0, y1, profile_y;
  std::size_t nx, ny, profile_points;
};

/// Prints the ASCII contour and a profile of a solved system's surface
/// potential, writes the map as CSV and returns the profile's peak in kV.
double surface_potential(const cad::GroundingSystem& system, const char* csv,
                         const SurfaceView& view) {
  const auto evaluator = system.potential_evaluator();
  const auto grid = evaluator.surface_grid(view.x0, view.x1, view.y0, view.y1, view.nx, view.ny);
  std::printf("%s\n", post::ascii_contour(grid, 2 * view.nx).c_str());
  std::ofstream os(csv);
  post::write_contour_csv(os, grid);
  const geom::Vec3 a{view.x0, view.profile_y, 0};
  const geom::Vec3 b{view.x1, view.profile_y, 0};
  const auto profile = evaluator.profile(a, b, view.profile_points);
  std::printf("profile y=%.0fm, x=%.0f..%.0f (kV):", view.profile_y, view.x0, view.x1);
  for (double v : profile) std::printf(" %.2f", v / 1e3);
  std::printf("\n\n");
  return *std::max_element(profile.begin(), profile.end()) / 1e3;
}

void grid_plans(Checks& checks, const cad::BarberaCase& barbera,
                const cad::BalaidosCase& balaidos) {
  std::printf("=== Fig. 5.1: Barbera grounding grid plan ===\n");
  const geom::GridStats bs = geom::grid_stats(barbera.conductors);
  const auto segments = static_cast<double>(bs.conductor_count);
  const auto dof = static_cast<double>(geom::Mesh::build(barbera.conductors).node_count());
  std::printf("bounding box %.0f m^2 (paper: right triangle 143 x 89 m)\n", bs.area_bbox);
  std::printf("protected area %.0f m^2 (paper: ~6,600 m^2)\n", 0.5 * bs.area_bbox);
  std::printf("total conductor %.0f m\n", bs.total_length);
  write_plan("barbera_plan.csv", barbera.conductors);
  checks.near("Fig. 5.1 conductor segments", 408, segments, 0.05, 0);
  checks.near("Fig. 5.1 degrees of freedom", 238, dof, 0.05, 0);
  checks.row("Fig. 5.1 burial depth (m)", "0.80", Table::num(-bs.max_z, 2), "exact",
             bs.max_z == -0.80);
  std::printf("\n=== Fig. 5.3: Balaidos grounding grid plan ===\n");
  const geom::GridStats ls = geom::grid_stats(balaidos.conductors);
  const auto is_rod = [](const geom::Conductor& c) { return c.a.x == c.b.x && c.a.y == c.b.y; };
  const auto rods = static_cast<std::size_t>(std::ranges::count_if(balaidos.conductors, is_rod));
  const std::size_t elements = geom::Mesh::build(balaidos.conductors).element_count();
  std::printf("bounding box %.0f m^2, rods 1.5 m x 14 mm\n", ls.area_bbox);
  std::printf("depth range %.2f .. %.2f m\n", -ls.max_z, -ls.min_z);
  std::printf("elements (unsplit) %zu (paper discretization: 241)\n", elements);
  write_plan("balaidos_plan.csv", balaidos.conductors);
  const auto grid_conductors = static_cast<double>(ls.conductor_count - rods);
  checks.near("Fig. 5.3 grid conductors", 107, grid_conductors, 0.05, 0);
  checks.row("Fig. 5.3 vertical rods", "67", std::to_string(rods), "exact", rods == 67);
  std::printf("\n");
}

/// §5.1 / Fig. 5.2: Barbera uniform vs two-layer at refinement 12.
void fig_5_2(Checks& checks, engine::Engine& engine) {
  const cad::BarberaCase barbera = cad::barbera_case(12);
  const PaperModel models[] = {
      {"uniform", "barbera_surface_uniform.csv", barbera.uniform_soil, 0.3128, 31.97},
      {"two-layer", "barbera_surface_two_layer.csv", barbera.two_layer_soil, 0.3704, 26.99},
  };
  std::printf("=== §5.1 / Fig. 5.2: Barbera surface potential, uniform vs two-layer ===\n");
  const SurfaceView view{-20.0, 100.0, -20.0, 160.0, 40.0, 31, 31, 13};
  std::array<double, 2> req{};
  for (std::size_t k = 0; k < 2; ++k) {
    cad::GroundingSystem system(barbera.conductors, models[k].soil, paper_options(barbera.gpr));
    const cad::Report& report = system.analyze(engine);
    req[k] = report.equivalent_resistance;
    const double current = report.total_current / 1e3;
    std::printf("--- %s soil: Req = %.4f Ohm (paper %.4f) | I = %.2f kA (paper %.2f) ---\n",
                models[k].name, req[k], models[k].paper_req, current, models[k].paper_current);
    surface_potential(system, models[k].csv, view);
    const std::string model = std::string("Fig. 5.2 ") + models[k].name;
    checks.near(model + " Req (Ohm)", models[k].paper_req, req[k], 0.10);
    checks.near(model + " I (kA)", models[k].paper_current, current, 0.10, 2);
  }
  const std::string ours = Table::num(req[1]) + " > " + Table::num(req[0]);
  checks.row("Fig. 5.2 Req two-layer > uniform", "0.3704 > 0.3128", ours, "strict",
             req[1] > req[0]);
  std::printf("The resistive top layer crowds the equipotentials toward the grid edge.\n\n");
}

/// Table 5.1, Fig. 5.4 and Table 6.3 from one analysis per Balaidos soil.
void balaidos_sections(Checks& checks, engine::Engine& engine, const cad::BalaidosCase& balaidos) {
  const PaperModel models[] = {
      {"A", "balaidos_surface_a.csv", balaidos.soil_a, 0.3366, 29.71},
      {"B", "balaidos_surface_b.csv", balaidos.soil_b, 0.3522, 28.39},
      {"C", "balaidos_surface_c.csv", balaidos.soil_c, 0.4860, 20.58},
  };
  // Table 6.3: matrix-generation time at p = 1 (s) and Dynamic,1 speed-ups at
  // p = 2, 4, 8 (the paper gives none for model A).
  const std::array<double, 3> paper_time{2.44, 81.26, 443.28};
  const std::array<double, 3> paper_speedup[] = {{}, {1.98, 3.98, 8.05}, {2.03, 3.98, 8.28}};
  std::vector<cad::GroundingSystem> systems;
  systems.reserve(3);
  std::array<double, 3> req{};
  for (std::size_t k = 0; k < 3; ++k) {
    systems.emplace_back(balaidos.conductors, models[k].soil, paper_options(balaidos.gpr));
    req[k] = systems[k].analyze(engine).equivalent_resistance;
  }
  std::printf("=== Table 5.1: Balaidos equivalent resistance and total current ===\n");
  Table table({"Soil Model", "Req (Ohm)", "I (kA)", "paper Req", "paper I", "elements"});
  for (std::size_t k = 0; k < 3; ++k) {
    const cad::Report& report = systems[k].report();
    const double current = report.total_current / 1e3;
    table.add_row({models[k].name, Table::num(req[k]), Table::num(current, 2),
                   Table::num(models[k].paper_req), Table::num(models[k].paper_current, 2),
                   std::to_string(report.element_count)});
    const std::string model = std::string("Table 5.1 ") + models[k].name;
    checks.near(model + " Req (Ohm)", models[k].paper_req, req[k], 0.05);
    checks.near(model + " I (kA)", models[k].paper_current, current, 0.05, 2);
  }
  checks.row("Table 5.1 Req ordering A < B < C", chain({0.3366, 0.3522, 0.4860}, " < ", 4),
             chain(req, " < ", 4), "strict", req[0] < req[1] && req[1] < req[2]);
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf("The thicker resistive top layer of model C cuts the leaked current by ~30%%.\n\n");

  std::printf("=== Fig. 5.4: Balaidos surface potential; A uniform, B/C 0.7/1.0 m 2-layer ===\n");
  const SurfaceView view{-15.0, 95.0, -15.0, 75.0, 30.0, 29, 25, 12};
  std::array<double, 3> peak{};
  for (std::size_t k = 0; k < 3; ++k) {
    std::printf("--- Soil model %s (Req %.4f Ohm) ---\n", models[k].name, req[k]);
    peak[k] = surface_potential(systems[k], models[k].csv, view);
  }
  checks.row("Fig. 5.4 y=30m peak A > B > C (kV)", "-", chain(peak, " > ", 2), "strict",
             peak[0] > peak[1] && peak[1] > peak[2]);
  std::printf("At a fixed GPR, model C's thicker resistive blanket leaks the least current\n"
              "(Table 5.1) and gives the lowest surface potential over the grid.\n\n");

  std::printf("=== Table 6.3: Balaidos generation time (s), simulated Dynamic,1 speed-ups ===\n");
  Table speedups({"Soil Model", "t(p=1)", "S(p=2)", "S(p=4)", "S(p=8)", "paper t(p=1)"});
  std::array<double, 3> time{};
  for (std::size_t k = 0; k < 3; ++k) {
    const cad::Report& report = systems[k].report();
    time[k] = report.phases.cpu_seconds(Phase::kMatrixGeneration);
    std::vector<std::string> cells{models[k].name, Table::num(time[k], 3)};
    for (std::size_t i = 0; i < 3; ++i) {
      const std::size_t p = std::size_t{2} << i;
      const double s = par::simulated_speedup(report.column_costs, p, par::Schedule::dynamic(1));
      cells.push_back(Table::num(s, 2));
      if (k == 0) continue;
      const std::string name = "Table 6.3 " + cells[0] + " S(p=" + std::to_string(p) + ")";
      checks.near(name, paper_speedup[k][i], s, 0.10, 2);
    }
    cells.push_back(Table::num(paper_time[k], 2));
    speedups.add_row(cells);
  }
  checks.row("Table 6.3 t(p=1) ordering A < B < C", chain(paper_time, " < ", 2),
             chain(time, " < ", 3), "strict", time[0] < time[1] && time[1] < time[2]);
  std::printf("\n%s\n", speedups.to_string().c_str());
  const double paper_ratio = paper_time[2] / paper_time[1];
  std::printf("Model C / B cost ratio: %.1fx (paper: %.1fx)\n\n", time[2] / time[1], paper_ratio);
}

/// Fig. 6.1's inner loop: the columns run one after another, each column's
/// rows scheduled Dynamic,1 with a synchronization point at its end.
double inner_loop_makespan(const std::vector<double>& costs, std::size_t p,
                           const par::SimOptions& overhead) {
  double total = 0.0;
  for (std::size_t beta = 0; beta < costs.size(); ++beta) {
    const std::size_t rows = costs.size() - beta;
    const std::vector<double> row_costs(rows, costs[beta] / static_cast<double>(rows));
    total += par::simulate_schedule(row_costs, p, par::Schedule::dynamic(1), overhead).makespan;
  }
  return total;
}

/// Tables 6.1, 6.2 and Fig. 6.1 from one analysis of Barbera two-layer.
void barbera_sections(Checks& checks, engine::Engine& engine) {
  const cad::BarberaCase barbera = cad::barbera_case();  // paper-scale ~408 segments
  const cad::DesignOptions options = paper_options(barbera.gpr);
  cad::GroundingSystem system(barbera.conductors, barbera.two_layer_soil, options);
  const cad::Report& report = system.analyze(engine);
  const std::vector<double>& costs = report.column_costs;
  std::printf("=== Table 6.1: Barbera two-layer analysis, sequential execution ===\n\n");
  std::printf("%s\n", report.phases.to_string().c_str());
  const double current = report.total_current / 1e3;
  std::printf("Req = %.4f Ohm, I = %.2f kA\n", report.equivalent_resistance, current);
  std::printf("%zu elements / %zu DoF\n", report.element_count, report.dof_count);
  std::printf("Paper reference (O2000, seconds): input 0.737, preprocess 0.045,\n"
              "matrix generation 1723.207, solve 0.211, storage 0.015.\n");
  const double share = 100.0 * report.phases.cpu_fraction(Phase::kMatrixGeneration);
  const std::string ours = Table::num(share, 2) + "%";
  checks.row("Table 6.1 matrix-generation CPU share", "99.9%", ours, ">= 95%", share >= 95.0);

  std::printf("\n=== Table 6.2: Barbera two-layer, simulated outer-loop speed-ups ===\n");
  // Each schedule with the paper's speed-ups at p = 1, 2, 4, 8.
  const std::pair<par::Schedule, std::array<double, 4>> rows[] = {
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
  Table table({"Schedule ()", "p=1", "p=2", "p=4", "p=8", "|", "paper p=1", "p=2", "p=4", "p=8"});
  for (const auto& [schedule, paper] : rows) {
    std::vector<std::string> cells{par::to_string(schedule)};
    for (std::size_t p : {1u, 2u, 4u, 8u}) {
      cells.push_back(Table::num(par::simulated_speedup(costs, p, schedule), 2));
    }
    cells.emplace_back("|");
    for (double value : paper) cells.push_back(Table::num(value, 2));
    table.add_row(cells);
    const std::string name = "Table 6.2 " + cells[0] + " S(p=8)";
    checks.near(name, paper[3], par::simulated_speedup(costs, 8, schedule), 0.15, 2);
  }

  // A real threaded run: the same numerics up to accumulation order.
  engine::Engine threaded_engine({.num_threads = 2, .use_congruence_cache = false});
  cad::GroundingSystem threaded(barbera.conductors, barbera.two_layer_soil, options);
  const double threaded_req = threaded.analyze(threaded_engine).equivalent_resistance;
  const double deviation = std::abs(threaded_req / report.equivalent_resistance - 1.0);
  std::array<char, 32> deviation_text{};
  std::snprintf(deviation_text.data(), deviation_text.size(), "%.1e relative", deviation);
  checks.row("Table 6.2 2-thread Req vs sequential", "-", deviation_text.data(), "<= 1e-12",
             deviation <= 1e-12);
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf("Only p=8 is checked: the paper's Static,64 at p=4 (1.86) sits below ours.\n");

  std::printf("\n=== Fig. 6.1: Barbera two-layer, speed-up vs number of processors ===\n");
  std::printf("(outer-loop: solid line in the paper, inner-loop: dashed; 2 us per chunk)\n");
  const double sequential = std::accumulate(costs.begin(), costs.end(), 0.0);
  const par::SimOptions overhead{.per_chunk_overhead = 2e-6};
  Table speedups({"p", "outer-loop", "inner-loop"});
  for (std::size_t p : {1u, 2u, 4u, 8u, 16u, 24u, 32u, 48u, 64u}) {
    const double outer = par::simulated_speedup(costs, p, par::Schedule::dynamic(1), overhead);
    const double inner = sequential / inner_loop_makespan(costs, p, overhead);
    speedups.add_row({std::to_string(p), Table::num(outer, 2), Table::num(inner, 2)});
    const std::string name = "Fig. 6.1 p=" + std::to_string(p) + " outer (inner < outer)";
    const std::string ours = Table::num(outer, 2) + " (" + Table::num(inner, 2) + ")";
    const bool ok = outer >= 0.95 * static_cast<double>(p) && inner < outer;
    checks.row(name, "~" + std::to_string(p), ours, ">= 0.95 p", ok);
  }
  std::printf("\n%s\n", speedups.to_string().c_str());
}

/// §1/§3: domain (FD) vs boundary (BEM) discretization of one 8 m rod.
void fd_vs_bem(Checks& checks) {
  const std::vector<geom::Conductor> rod{{{0, 0, -0.5}, {0, 0, -8.5}, 0.5}};
  const auto soil = soil::LayeredSoil::uniform(0.01);
  std::printf("=== §1/§3: FD (domain) vs BEM (boundary), single 8 m rod, uniform soil ===\n");
  Table table({"method", "unknowns", "Req (Ohm)", "time (s)"});
  double bem_req = 0.0;
  for (double h : {2.0, 0.5}) {
    const bem::BemModel model(geom::Mesh::build(rod, {.target_element_length = h}), soil);
    WallTimer timer;
    bem_req = bem::analyze(model, {}).equivalent_resistance;
    const std::string method = "BEM h=" + Table::num(h, 1) + "m";
    const std::string unknowns = std::to_string(model.dof_count(bem::BasisKind::kLinear));
    table.add_row({method, unknowns, Table::num(bem_req), Table::num(timer.seconds(), 4)});
  }
  double fd_low = HUGE_VAL;
  double fd_high = 0.0;
  for (std::size_t n : {24u, 40u, 56u}) {
    const fdm::FdOptions grid{.padding = 40.0, .cells_x = n, .cells_y = n, .cells_z = 3 * n / 4};
    WallTimer timer;
    const fdm::FdResult fd = fdm::solve_grounding(rod, soil, grid);
    fd_low = std::min(fd_low, fd.equivalent_resistance);
    fd_high = std::max(fd_high, fd.equivalent_resistance);
    table.add_row({"FD " + std::to_string(n) + "^3-ish", std::to_string(fd.unknowns),
                   Table::num(fd.equivalent_resistance), Table::num(timer.seconds(), 2)});
  }
  checks.row("FD Req brackets finest BEM (Ohm)", "-", chain({fd_low, bem_req, fd_high}, " < ", 2),
             "brackets", fd_low < bem_req && bem_req < fd_high);
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf("FD needs orders of magnitude more unknowns than BEM for ONE conductor.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool check = argc == 2 && std::strcmp(argv[1], "--check") == 0;
  if (argc != 1 && !check) {
    std::fprintf(stderr, "usage: bench_paper [--check]\n");
    return 2;
  }

  Checks checks;
  const cad::BalaidosCase balaidos = cad::balaidos_case();
  grid_plans(checks, cad::barbera_case(), balaidos);
  engine::Engine engine({.use_congruence_cache = false, .measure_column_costs = true});
  fig_5_2(checks, engine);
  balaidos_sections(checks, engine, balaidos);
  barbera_sections(checks, engine);
  fd_vs_bem(checks);

  const std::size_t passed = checks.rows - checks.failed.size();
  std::printf("bench_paper: %zu of %zu checked rows within tolerance\n", passed, checks.rows);
  for (const std::string& name : checks.failed) {
    std::fprintf(stderr, "bench_paper: out of tolerance: %s\n", name.c_str());
  }
  return check && !checks.failed.empty() ? 1 : 0;
}
