#include "src/engine/execution_config.hpp"

#include "src/common/error.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::engine {

std::size_t ExecutionConfig::resolved_threads() const {
  if (pool != nullptr) return pool->num_threads();
  if (num_threads == 0) return par::hardware_threads();
  return num_threads;
}

void ExecutionConfig::validate() const {
  if (pool != nullptr) {
    // A supplied pool must be the one source of truth for the worker count:
    // the historical footgun was a pool that was silently ignored whenever
    // num_threads stayed at its default of 1.
    EBEM_EXPECT(num_threads == 0 || num_threads == pool->num_threads(),
                "ExecutionConfig: num_threads contradicts the supplied pool's size; "
                "set num_threads = 0 to adopt the pool's worker count");
  }
  EBEM_EXPECT(cg_tolerance > 0.0, "ExecutionConfig: cg_tolerance must be positive");
  la::validate_storage_config(storage, "ExecutionConfig");
  EBEM_EXPECT(pipeline_width >= 1, "ExecutionConfig: pipeline_width must be at least 1");
}

}  // namespace ebem::engine
