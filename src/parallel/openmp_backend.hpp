// OpenMP execution backend for the schedule vocabulary.
//
// The paper parallelized with OpenMP compiler directives on the SGI Origin
// 2000 (§6.1: portability, clarity, and the loop "is transformable into an
// adequate form so that directives are efficient"). This backend maps our
// Schedule type onto `omp_set_schedule` + `schedule(runtime)` loops so the
// exact same assembly code paths can run under either the portable thread
// pool or a real OpenMP runtime. Compiled to a sequential fallback when
// OpenMP is unavailable.
#pragma once

#include <cstddef>
#include <functional>

#include "src/parallel/schedule.hpp"

namespace ebem::par {

/// True when the library was built against an OpenMP runtime.
[[nodiscard]] bool openmp_available();

/// Run body(i, thread_id) for i in [0, n) under the given schedule with
/// `num_threads` OpenMP threads (thread_id < num_threads, for per-thread
/// scratch state). Falls back to a sequential loop on thread 0 without OpenMP.
void openmp_parallel_for(std::size_t num_threads, std::size_t n, const Schedule& schedule,
                         const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace ebem::par
