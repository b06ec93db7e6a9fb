// engine::Scheduler — asynchronous, pipelined execution of analysis runs.
//
// The paper's workload is a CAD loop: many independent analyses of nearby
// grounding-grid candidates. Blocking calls leave the pool idle through each
// candidate's serial solve tail; this scheduler instead accepts whole runs
// up front (Engine::submit / Study::submit return a RunFuture immediately)
// and decomposes each into its pipeline stages
//
//     assemble  ->  [factor]  ->  solve / finish
//
// dispatched from one ready-queue onto a small, fixed set of stage
// executors. Runs do not own threads — task handoff is event-driven: an
// executor pops the best ready stage, runs it, and pushes the run's next
// stage back. Each stage still fans out internally over the engine's shared
// par::ThreadPool via parallel_for (regions are serialized inside the pool),
// so while candidate k's factorization occupies the workers, candidate
// k+1's assembly stage runs its serial sections and queues its own regions:
// the workers stay busy through what used to be dead time between runs.
//
// The ready-queue prefers later stages of older runs over starting new
// assemblies, which both delivers results roughly in submission order and
// bounds how many assembled matrices are alive at once (~pipeline_width).
//
// Every run has one way in — submit()/submit_factor(), which take the
// model by value, so the run owns its input — and one way out: the
// executor that ends the run (done, failed, or cancelled before it
// started) publishes the terminal status, retires the run from the
// scheduler's accounting, and then invokes the run's optional completion
// callback exactly once, outside every scheduler lock. Callers that must
// react to completion (the service dispatcher bills and publishes from
// there) therefore need no thread watching futures.
//
// Concurrency contract with the engine's warm resources:
//  * at submit, a run takes the engine's cache for its own physics (the
//    current one, or a fresh one that replaces it) and holds it until its
//    assembly ends; runs of one physics share a cache concurrently (it is a
//    sharded, thread-safe map; per-run hit/miss deltas are tallied inside
//    each assembly), and runs of different physics never share one;
//  * per-run PhaseReports merge into the engine's session report through
//    PhaseReport's internally locked merge, so no counter increment is lost.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/engine/factored_system.hpp"
#include "src/la/tile_store.hpp"

namespace ebem::engine {

class Engine;
class Scheduler;

/// Per-run overrides of the engine's session-wide execution policy,
/// validated at submit() time — a bad override throws ebem::InvalidArgument
/// on the submitting thread, never on an executor mid-pipeline.
struct SubmitOptions {
  /// Storage policy of this run's matrix (and factor) stores. Note that a
  /// residency budget is per store per run: with pipeline_width runs in
  /// flight the session's resident total is up to width x budget, so a
  /// session-level cap should be divided across the width before
  /// submitting.
  std::optional<la::StorageConfig> storage;
  /// Override ExecutionConfig::measure_residual for this run.
  std::optional<bool> measure_residual;

  /// Throws ebem::InvalidArgument on contradictions (zero tile size, a
  /// residency budget without a spill_dir).
  void validate() const;
};

enum class RunStatus {
  kQueued,     ///< submitted, no stage started yet (cancellable)
  kRunning,    ///< some stage is executing or between stages
  kDone,       ///< result available
  kFailed,     ///< a stage threw; get() rethrows
  kCancelled,  ///< cancelled before the first stage; get() throws
};

namespace detail {
struct RunState;
/// A run's stored completion hook: the typed callback, wrapped so it can
/// rebuild the run's future at call time.
using Completion = std::function<void(std::shared_ptr<RunState>)>;
}  // namespace detail

/// Shared handle surface of one submitted run: lifecycle queries, the
/// per-run report and cache-delta, and best-effort cancel. Copyable (all
/// copies observe the same run); default-constructed handles are empty
/// (valid() == false). RunFuture/FactorFuture add only their payload
/// accessor.
class FutureBase {
 public:
  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  /// Non-blocking: has the run reached a terminal state (done/failed/
  /// cancelled)?
  [[nodiscard]] bool ready() const;
  [[nodiscard]] RunStatus status() const;
  /// Block until terminal.
  void wait() const;
  /// This run's phase timings and counters; blocks until terminal (the
  /// same numbers the engine's session report received).
  [[nodiscard]] const PhaseReport& report() const;
  /// Congruence-cache hits/misses of this run alone (exact under
  /// concurrency — tallied inside the run's assembly); blocks until
  /// terminal.
  [[nodiscard]] const bem::CongruenceCacheStats& cache_delta() const;
  /// Best-effort cancel: succeeds only while the run is still queued (no
  /// stage started). Returns whether the run will never execute.
  bool cancel() const;

 protected:
  FutureBase() = default;
  explicit FutureBase(std::shared_ptr<detail::RunState> state) : state_(std::move(state)) {}

  std::shared_ptr<detail::RunState> state_;
};

/// Future of a submitted analysis run (Engine/Study::submit).
class RunFuture : public FutureBase {
 public:
  RunFuture() = default;

  /// Block, then return the result; rethrows the run's exception on
  /// failure and throws ebem::InvalidArgument on a cancelled run. The
  /// result stays owned by the future, so get() may be called repeatedly.
  [[nodiscard]] const bem::AnalysisResult& get() const;
  /// Block, then move the result out (one shot — the blocking shims'
  /// flavor).
  [[nodiscard]] bem::AnalysisResult take();

 private:
  friend class Scheduler;
  using FutureBase::FutureBase;
};

/// Future of a submitted assemble+factor run (Engine::submit_factor).
class FactorFuture : public FutureBase {
 public:
  FactorFuture() = default;

  /// Block, then move the factored system out (one shot; the handle borrows
  /// the engine's pool and report, so the Engine must outlive it).
  [[nodiscard]] FactoredSystem take();

 private:
  friend class Scheduler;
  using FutureBase::FutureBase;
};

/// Completion callbacks (see Scheduler::submit). Each receives the run's own
/// future, already terminal.
using RunCallback = std::function<void(RunFuture)>;
using FactorCallback = std::function<void(FactorFuture)>;

/// Lifetime accounting of a scheduler — what the backpressure bound and the
/// campaign bench assert against.
struct SchedulerStats {
  std::uint64_t submitted = 0;        ///< runs accepted so far
  std::size_t peak_outstanding = 0;   ///< max simultaneous non-terminal runs
};

/// The engine's stage scheduler. Owned by (and only constructible through)
/// an Engine; public mainly so tests can name it. Destruction drains: every
/// submitted run reaches a terminal state, and every completion callback
/// has returned, before the executors join.
class Scheduler {
 public:
  /// `max_pending` bounds runs submitted but not yet terminal (0 =
  /// unbounded): at the bound, submit blocks until a run retires.
  Scheduler(Engine& engine, std::size_t width, std::size_t max_pending = 0);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Queue one run; the run owns `model`. `on_complete` (optional) is
  /// stored with the run before it is queued and invoked exactly once by
  /// the executor that ends it — done, failed, or cancelled before start —
  /// after the terminal status is published and the run has left this
  /// scheduler's outstanding count, outside every scheduler lock. It runs
  /// on an executor, so it should be short and must not throw (an escaping
  /// exception terminates the process), and it must not destroy the
  /// engine. It is dropped right after the call, so capturing a handle to
  /// whatever owns the future forms no lasting cycle.
  [[nodiscard]] RunFuture submit(bem::BemModel model, const bem::AnalysisOptions& options,
                                 const SubmitOptions& overrides, RunCallback on_complete = {});
  [[nodiscard]] FactorFuture submit_factor(bem::BemModel model,
                                           const bem::AnalysisOptions& options,
                                           const SubmitOptions& overrides,
                                           FactorCallback on_complete = {});

  /// Block until every run submitted so far is terminal. A completion
  /// callback may still be running when this returns.
  void drain();

  [[nodiscard]] std::size_t width() const { return executors_.size(); }

  /// Snapshot of the lifetime accounting (peak_outstanding is exact: it is
  /// maintained under the same lock that admits submissions).
  [[nodiscard]] SchedulerStats stats() const;

 private:
  struct Task {
    std::shared_ptr<detail::RunState> run;
    int stage;
  };

  /// Wrap a typed callback into the run's stored hook (empty stays empty).
  template <class Future>
  static detail::Completion completion(std::function<void(Future)> callback);

  std::shared_ptr<detail::RunState> make_run(bem::BemModel model,
                                             const bem::AnalysisOptions& options,
                                             const SubmitOptions& overrides, bool factor_only,
                                             detail::Completion on_complete);
  void enqueue(Task task);
  void executor_loop();
  void execute_stage(const Task& task);
  void finish_run(const std::shared_ptr<detail::RunState>& run, RunStatus status);

  /// Called by finish_run under mutex_; wakes drain() and bounded
  /// submitters.
  void retire_locked();

  Engine& engine_;
  std::size_t max_pending_ = 0;  ///< 0 = unbounded (immutable after ctor)

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;    ///< executors: a task or stop arrived
  std::condition_variable drained_cv_;  ///< drain(): outstanding_ hit zero
  std::condition_variable submit_cv_;   ///< bounded submit: a slot opened
  std::vector<Task> ready_;             ///< heap: later stages first, then FIFO
  std::size_t outstanding_ = 0;         ///< submitted runs not yet terminal
  std::size_t peak_outstanding_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t next_sequence_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> executors_;
};

}  // namespace ebem::engine
