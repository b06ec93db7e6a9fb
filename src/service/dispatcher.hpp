// service::Dispatcher — the transport-agnostic core of the service.
//
// One Dispatcher is the whole server minus the bytes: handle() maps one
// request line to one response line, thread-safe, so any number of
// connection threads (socket server) or in-process callers (loopback) share
// it. Behind handle() sit the TenantRegistry (per-tenant engines + warm
// caches), the AdmissionController (typed rejections in front of every
// submit) and a table of submitted runs.
//
// The dispatcher owns no thread. Every submit hands the engine a completion
// callback, which the engine's executor invokes once when the run ends. It
// builds the run's RunReport, bills the tenant's CostAccount with the
// run's PhaseReport, retires the admission slot, and only then publishes
// the report — so a client that reads "done" also sees the bill and the
// free slot, and billing happens whether or not a client ever asks.
// get_report with a wait parks on the run record's own condition variable
// until the report is published.
//
// shutdown() is graceful and idempotent: stop admitting (typed
// shutting_down rejections), then wait until every admitted run is billed.
// Reports and stats stay answerable after shutdown — the bill outlives the
// work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/engine/scheduler.hpp"
#include "src/service/admission.hpp"
#include "src/service/codec.hpp"
#include "src/service/tenant.hpp"

namespace ebem::service {

/// The dispatcher-wide picture (server stats endpoint, tests, bench gates).
struct DispatcherStats {
  std::size_t runs_tracked = 0;     ///< submitted runs still remembered
  std::uint64_t runs_harvested = 0;  ///< terminal runs billed and retired
  AdmissionStats admission;
  bool shutting_down = false;
};

class Dispatcher {
 public:
  explicit Dispatcher(const ServiceConfig& config);

  /// Calls shutdown().
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// One request line in, one response line out (no trailing newline).
  /// Never throws: every failure becomes a typed error response. Safe from
  /// any number of threads concurrently.
  [[nodiscard]] std::string handle(std::string_view line);

  /// Graceful stop: reject new submits, then wait until every admitted run
  /// is billed and its report published. Idempotent; stats and get_report
  /// keep answering afterwards.
  void shutdown();

  [[nodiscard]] DispatcherStats stats();

  [[nodiscard]] TenantRegistry& registry() { return registry_; }
  [[nodiscard]] AdmissionController& admission() { return admission_; }

 private:
  /// One submitted run: its identity, its future while the report is
  /// unpublished (for queued/running polls), and the published report.
  struct RunRecord {
    std::uint64_t id = 0;
    TenantSession* session = nullptr;
    std::size_t elements = 0;
    bool factor_solve = false;

    std::mutex mutex;
    std::condition_variable cv;  ///< the report was published
    engine::RunFuture run_future;        ///< dropped on publish
    engine::FactorFuture factor_future;  ///< dropped on publish
    bool done = false;
    RunReport report;  ///< valid once done
  };

  std::string handle_submit(const SubmitRequest& request);
  std::string handle_report(const ReportRequest& request);
  std::string handle_stats(const StatsRequest& request);

  /// The completion callback of every submitted run, on the engine's
  /// executor: build the report, bill, retire the admission slot, publish,
  /// count.
  template <class Future>
  void complete(RunRecord& record, Future future);

  /// One run left the unbilled set (billed, or never reached the engine).
  void settle(bool harvested);

  AdmissionController admission_;

  std::mutex runs_mutex_;
  std::condition_variable settled_cv_;  ///< unbilled_ reached zero
  std::map<std::uint64_t, std::shared_ptr<RunRecord>> runs_;
  std::uint64_t next_run_id_ = 1;
  std::uint64_t runs_harvested_ = 0;
  std::size_t unbilled_ = 0;  ///< admitted runs whose callback has not settled
  bool shut_down_ = false;

  // Declared last, so destroyed first: the tenant engines join their
  // executors — and with them every completion callback — while the state
  // those callbacks touch is still alive.
  TenantRegistry registry_;
};

}  // namespace ebem::service
