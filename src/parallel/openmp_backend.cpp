#include "src/parallel/openmp_backend.hpp"

#ifdef EBEM_HAS_OPENMP
#include <omp.h>
#endif

#include "src/common/error.hpp"

namespace ebem::par {

#ifdef EBEM_HAS_OPENMP

bool openmp_available() { return true; }

void openmp_parallel_for(std::size_t num_threads, std::size_t n, const Schedule& schedule,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  EBEM_EXPECT(num_threads >= 1, "need at least one thread");
  omp_sched_t kind = omp_sched_dynamic;
  switch (schedule.kind) {
    case ScheduleKind::kStatic:
      kind = omp_sched_static;
      break;
    case ScheduleKind::kDynamic:
      kind = omp_sched_dynamic;
      break;
    case ScheduleKind::kGuided:
      kind = omp_sched_guided;
      break;
  }
  // chunk 0 selects the OpenMP default for the kind, as in our Schedule.
  omp_set_schedule(kind, static_cast<int>(schedule.chunk));

  const auto count = static_cast<long long>(n);
#pragma omp parallel for schedule(runtime) num_threads(static_cast<int>(num_threads))
  for (long long i = 0; i < count; ++i) {
    body(static_cast<std::size_t>(i), static_cast<std::size_t>(omp_get_thread_num()));
  }
}

#else  // !EBEM_HAS_OPENMP

bool openmp_available() { return false; }

void openmp_parallel_for(std::size_t num_threads, std::size_t n, const Schedule& /*schedule*/,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  EBEM_EXPECT(num_threads >= 1, "need at least one thread");
  for (std::size_t i = 0; i < n; ++i) body(i, 0);
}

#endif

}  // namespace ebem::par
