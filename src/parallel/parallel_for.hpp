// parallel_for with OpenMP schedule semantics over a persistent thread pool.
//
// This is the loop engine the assembly, solver and post-processing stages
// use; the schedule vocabulary matches the paper's Table 6.2 study exactly.
// The body parameter is a template so per-iteration dispatch inlines — the
// assembly triangle loop runs millions of tiny bodies and a std::function
// call per iteration is measurable overhead there.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "src/parallel/schedule.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::par {

/// Half-open iteration chunk [begin, end).
struct ChunkRange {
  std::size_t begin;
  std::size_t end;
};

/// The chunks a static schedule assigns to `thread_id`, in execution order.
/// Exposed for testing and for the schedule simulator (the simulator must
/// partition identically to the real executor).
[[nodiscard]] std::vector<ChunkRange> static_chunks_for_thread(std::size_t n,
                                                               std::size_t num_threads,
                                                               std::size_t thread_id,
                                                               std::size_t chunk);

/// Next guided chunk size given remaining iterations (OpenMP rule:
/// remaining / num_threads, floored at the minimum chunk, >= 1).
[[nodiscard]] std::size_t guided_chunk_size(std::size_t remaining, std::size_t num_threads,
                                            std::size_t min_chunk);

[[noreturn]] void unhandled_schedule_kind();

/// Chunked variant: body(range, thread_id) receives whole chunks, which lets
/// callers keep per-thread scratch state without false sharing.
template <typename Body>  // void(ChunkRange, std::size_t thread_id)
void parallel_for_chunks(ThreadPool& pool, std::size_t n, const Schedule& schedule, Body&& body) {
  const std::size_t num_threads = pool.num_threads();
  if (n == 0) return;

  switch (schedule.kind) {
    case ScheduleKind::kStatic: {
      pool.run([&](std::size_t tid) {
        for (const ChunkRange& range :
             static_chunks_for_thread(n, num_threads, tid, schedule.chunk)) {
          body(range, tid);
        }
      });
      return;
    }
    case ScheduleKind::kDynamic: {
      const std::size_t chunk = std::max<std::size_t>(schedule.chunk, 1);
      std::atomic<std::size_t> next{0};
      pool.run([&](std::size_t tid) {
        for (;;) {
          const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= n) return;
          body({begin, std::min(begin + chunk, n)}, tid);
        }
      });
      return;
    }
    case ScheduleKind::kGuided: {
      const std::size_t min_chunk = std::max<std::size_t>(schedule.chunk, 1);
      std::atomic<std::size_t> next{0};
      pool.run([&](std::size_t tid) {
        for (;;) {
          // Reserve a chunk sized from the *current* remaining count. The
          // reservation races benignly: a stale `remaining` only changes the
          // chunk size, never correctness, because fetch_add hands out
          // disjoint ranges.
          const std::size_t seen = next.load(std::memory_order_relaxed);
          if (seen >= n) return;
          const std::size_t size = guided_chunk_size(n - seen, num_threads, min_chunk);
          const std::size_t begin = next.fetch_add(size, std::memory_order_relaxed);
          if (begin >= n) return;
          body({begin, std::min(begin + size, n)}, tid);
        }
      });
      return;
    }
  }
  unhandled_schedule_kind();
}

/// Run body(i) for i in [0, n) on `pool` under `schedule`.
template <typename Body>  // void(std::size_t)
void parallel_for(ThreadPool& pool, std::size_t n, const Schedule& schedule, Body&& body) {
  parallel_for_chunks(pool, n, schedule, [&body](ChunkRange range, std::size_t) {
    for (std::size_t i = range.begin; i < range.end; ++i) body(i);
  });
}

}  // namespace ebem::par
