// Deterministic discrete-event simulator of chunked loop scheduling.
//
// Why this exists: the paper measured speed-ups on a 64-processor SGI
// Origin 2000; a build host measures real speed-ups only up to its own
// hardware concurrency (p <= hw_concurrency). The speed-up *shape* in
// Fig. 6.1 and Tables 6.2/6.3, however, is a property of the scheduling
// policy applied to the per-task costs of the triangular assembly loop
// (column i couples elements i..M-1, so costs decrease linearly). Given the
// *measured* sequential per-task costs, this simulator replays the exact
// assignment rules of static/dynamic/guided chunked scheduling and reports
// per-thread makespans for any processor count — which is precisely the
// quantity the paper's tables report, minus machine noise. See DESIGN.md §4.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/parallel/schedule.hpp"

namespace ebem::par {

struct SimOptions {
  /// Fixed cost charged to a thread every time it acquires a chunk; models
  /// the parallel-runtime dispatch overhead that makes fine-grained
  /// schedules lose efficiency at high processor counts.
  double per_chunk_overhead = 0.0;
};

struct SimResult {
  double makespan = 0.0;                  ///< finish time of the slowest thread
  std::vector<double> thread_busy_time;   ///< per-thread total work incl. overhead
  std::size_t chunks_dispatched = 0;
};

/// Simulate executing tasks with the given per-task costs on `num_threads`
/// under `schedule`. Dynamic/guided model the greedy behaviour of the real
/// runtime: the thread with the earliest available time takes the next chunk.
[[nodiscard]] SimResult simulate_schedule(std::span<const double> task_costs,
                                          std::size_t num_threads, const Schedule& schedule,
                                          const SimOptions& options = {});

/// Speed-up of the simulated parallel execution relative to the plain
/// sequential sum of task costs (the paper's reference point).
[[nodiscard]] double simulated_speedup(std::span<const double> task_costs,
                                       std::size_t num_threads, const Schedule& schedule,
                                       const SimOptions& options = {});

/// Per-column costs of the symmetric pair loop: column i of M couples with
/// columns i..M-1, so cost(i) = (M - i) * unit. This is the analytic load
/// profile of the paper's outer loop ("a triangle of M columns, of which the
/// first one has M rows and the last one has 1 row").
[[nodiscard]] std::vector<double> triangular_costs(std::size_t m, double unit = 1.0);

}  // namespace ebem::par
