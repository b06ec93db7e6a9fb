#include "src/service/dispatcher.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/engine/factored_system.hpp"
#include "src/la/blas1.hpp"

namespace ebem::service {

Dispatcher::Dispatcher(const ServiceConfig& config)
    : admission_(config.resolved_global_outstanding()), registry_(config) {}

Dispatcher::~Dispatcher() { shutdown(); }

std::string Dispatcher::handle(std::string_view line) {
  try {
    const Request request = decode_request(line);
    if (const auto* submit = std::get_if<SubmitRequest>(&request)) {
      return handle_submit(*submit);
    }
    if (const auto* report = std::get_if<ReportRequest>(&request)) {
      return handle_report(*report);
    }
    if (const auto* stats = std::get_if<StatsRequest>(&request)) {
      return handle_stats(*stats);
    }
    shutdown();
    Json::Object object;
    object.emplace("type", Json("shutdown_ok"));
    object.emplace("runs_harvested", Json(static_cast<double>(stats().runs_harvested)));
    return Json(std::move(object)).dump();
  } catch (const RequestError& error) {
    return error_response(error.code(), error.what());
  } catch (const std::exception& error) {
    return error_response(ErrorCode::kInternal, error.what());
  }
}

std::string Dispatcher::handle_submit(const SubmitRequest& request) {
  TenantSession* session = registry_.find(request.tenant);
  if (session == nullptr) {
    throw RequestError(ErrorCode::kUnknownTenant,
                       "tenant '" + request.tenant + "' is not registered");
  }

  // Mesh before admission: the element quota is checked against the meshed
  // size, and a model the codec accepted can still be rejected here without
  // the engine ever seeing it.
  bem::BemModel model = build_model(request.model);
  const std::size_t elements = model.element_count();

  auto record = std::make_shared<RunRecord>();
  record->session = session;
  record->elements = elements;
  record->factor_solve = request.factor_solve;
  {
    // Admission and the unbilled count move together under this lock, so
    // shutdown() either refuses this run or waits for its bill. The id is
    // allocated before submitting: the run may end before submit returns.
    const std::scoped_lock lock(runs_mutex_);
    admission_.admit(*session, elements);
    record->id = next_run_id_++;
    ++unbilled_;
  }

  try {
    // The callback owns a reference to the record; the scheduler drops it
    // once the callback has run, so record -> future -> callback -> record
    // never outlives the run.
    if (request.factor_solve) {
      engine::FactorFuture future = session->engine().submit_factor(
          std::move(model), session->study().options(),
          [this, record](engine::FactorFuture done) { complete(*record, std::move(done)); });
      const std::scoped_lock lock(record->mutex);
      if (!record->done) record->factor_future = std::move(future);
    } else {
      engine::RunFuture future = session->study().submit(
          std::move(model),
          [this, record](engine::RunFuture done) { complete(*record, std::move(done)); });
      const std::scoped_lock lock(record->mutex);
      if (!record->done) record->run_future = std::move(future);
    }
  } catch (...) {
    admission_.retire(*session);
    settle(/*harvested=*/false);
    throw;
  }

  {
    const std::scoped_lock lock(runs_mutex_);
    runs_.emplace(record->id, record);
  }
  return submitted_response(record->id, request.tenant, elements);
}

std::string Dispatcher::handle_report(const ReportRequest& request) {
  TenantSession* session = registry_.find(request.tenant);
  if (session == nullptr) {
    throw RequestError(ErrorCode::kUnknownTenant,
                       "tenant '" + request.tenant + "' is not registered");
  }
  std::shared_ptr<RunRecord> record;
  {
    const std::scoped_lock lock(runs_mutex_);
    const auto it = runs_.find(request.run_id);
    if (it != runs_.end()) record = it->second;
  }
  if (record == nullptr) {
    throw RequestError(ErrorCode::kUnknownRun,
                       "run " + std::to_string(request.run_id) + " was never issued");
  }
  if (record->session != session) {
    // A tenant may only observe its own runs — don't even confirm the id.
    throw RequestError(ErrorCode::kForbidden,
                       "run " + std::to_string(request.run_id) + " belongs to another tenant");
  }

  std::unique_lock lock(record->mutex);
  record->cv.wait_for(lock, std::chrono::milliseconds(request.wait_ms),
                      [&] { return record->done; });
  if (record->done) return report_response(record->report);
  // Unpublished: the submit stored the future before the id was handed out.
  RunReport report;
  report.run_id = record->id;
  report.factor_solve = record->factor_solve;
  const engine::RunStatus status = record->factor_solve ? record->factor_future.status()
                                                        : record->run_future.status();
  report.status = status == engine::RunStatus::kQueued ? "queued" : "running";
  return report_response(report);
}

std::string Dispatcher::handle_stats(const StatsRequest& request) {
  if (!request.tenant) {
    const DispatcherStats snapshot = stats();
    Json::Object object;
    object.emplace("type", Json("stats"));
    object.emplace("tenants", Json(static_cast<double>(registry_.sessions().size())));
    object.emplace("pool_threads", Json(static_cast<double>(registry_.pool_threads())));
    object.emplace("admitted", Json(static_cast<double>(snapshot.admission.admitted)));
    object.emplace("rejected", Json(static_cast<double>(snapshot.admission.rejected)));
    object.emplace("global_outstanding",
                   Json(static_cast<double>(snapshot.admission.global_outstanding)));
    object.emplace("global_peak_outstanding",
                   Json(static_cast<double>(snapshot.admission.global_peak_outstanding)));
    object.emplace("runs_harvested", Json(static_cast<double>(snapshot.runs_harvested)));
    object.emplace("shutting_down", Json(snapshot.shutting_down));
    return Json(std::move(object)).dump();
  }

  TenantSession* session = registry_.find(*request.tenant);
  if (session == nullptr) {
    throw RequestError(ErrorCode::kUnknownTenant,
                       "tenant '" + *request.tenant + "' is not registered");
  }
  const AdmissionLedger ledger = admission_.ledger_snapshot(*session);
  const CostAccount& account = session->account();
  const PhaseReport& bill = account.bill();
  const engine::SchedulerStats engine_stats = session->engine().scheduler_stats();

  Json::Object object;
  object.emplace("type", Json("tenant_stats"));
  object.emplace("tenant", Json(session->name()));
  object.emplace("outstanding", Json(static_cast<double>(ledger.outstanding)));
  object.emplace("peak_outstanding", Json(static_cast<double>(ledger.peak_outstanding)));
  object.emplace("runs_completed", Json(static_cast<double>(account.runs_completed())));
  object.emplace("runs_failed", Json(static_cast<double>(account.runs_failed())));
  object.emplace("runs_rejected", Json(static_cast<double>(account.runs_rejected())));
  object.emplace("elements_billed", Json(static_cast<double>(account.elements_billed())));
  object.emplace("assembly_seconds", Json(bill.wall_seconds(Phase::kMatrixGeneration)));
  object.emplace("solve_seconds", Json(bill.wall_seconds(Phase::kLinearSolve)));
  object.emplace("total_seconds", Json(bill.total_wall_seconds()));
  object.emplace("cache_hits", Json(bill.counter(bem::kCacheHitsCounter)));
  object.emplace("cache_misses", Json(bill.counter(bem::kCacheMissesCounter)));
  object.emplace("engine_submitted", Json(static_cast<double>(engine_stats.submitted)));
  object.emplace("engine_peak_outstanding",
                 Json(static_cast<double>(engine_stats.peak_outstanding)));
  return Json(std::move(object)).dump();
}

template <class Future>
void Dispatcher::complete(RunRecord& record, Future future) {
  RunReport report;
  report.run_id = record.id;
  report.factor_solve = record.factor_solve;
  report.elements = record.elements;
  const PhaseReport& run_phase = future.report();
  report.assembly_seconds = run_phase.wall_seconds(Phase::kMatrixGeneration);
  report.solve_seconds = run_phase.wall_seconds(Phase::kLinearSolve);
  report.total_seconds = run_phase.total_wall_seconds();
  report.cache_hits = run_phase.counter(bem::kCacheHitsCounter);
  report.cache_misses = run_phase.counter(bem::kCacheMissesCounter);
  try {
    if constexpr (std::is_same_v<Future, engine::FactorFuture>) {
      // Answer the unit-GPR problem by substitution, then rescale through
      // the analysis path's own scale_to_gpr(), so both wire paths agree to
      // the last bit modulo the solver route.
      const engine::FactoredSystem system = future.take();
      const bem::AnalysisResult scaled =
          bem::scale_to_gpr(system.rhs(), system.solve(), record.session->config().gpr);
      report.equivalent_resistance = scaled.equivalent_resistance;
      report.total_current = scaled.total_current;
      report.sigma_l2 = std::sqrt(la::dot(scaled.sigma, scaled.sigma));
    } else {
      const bem::AnalysisResult& result = future.get();
      report.equivalent_resistance = result.equivalent_resistance;
      report.total_current = result.total_current;
      report.sigma_l2 = std::sqrt(la::dot(result.sigma, result.sigma));
    }
    report.status = "done";
  } catch (const std::exception& error) {
    report.status = "failed";
    report.error = error.what();
  }

  // Bill the run's own PhaseReport — the same numbers the engine's session
  // report received — and release the admission slot before publishing, so
  // a client that reads "done" also sees the bill and the free slot.
  record.session->account().bill_run(run_phase, record.elements, report.status == "failed");
  admission_.retire(*record.session);

  {
    const std::scoped_lock lock(record.mutex);
    record.report = std::move(report);
    record.done = true;
    record.run_future = {};
    record.factor_future = {};
  }
  record.cv.notify_all();
  settle(/*harvested=*/true);
}

void Dispatcher::settle(bool harvested) {
  const std::scoped_lock lock(runs_mutex_);
  if (harvested) ++runs_harvested_;
  if (--unbilled_ == 0) settled_cv_.notify_all();
}

void Dispatcher::shutdown() {
  std::unique_lock lock(runs_mutex_);
  shut_down_ = true;
  admission_.begin_shutdown();
  settled_cv_.wait(lock, [&] { return unbilled_ == 0; });
}

DispatcherStats Dispatcher::stats() {
  DispatcherStats snapshot;
  snapshot.admission = admission_.stats();
  const std::scoped_lock lock(runs_mutex_);
  snapshot.runs_tracked = runs_.size();
  snapshot.runs_harvested = runs_harvested_;
  snapshot.shutting_down = shut_down_;
  return snapshot;
}

}  // namespace ebem::service
