// service::AdmissionController — the decision point in front of every
// Engine::submit.
//
// The engine's own backpressure (ExecutionConfig::max_pending_runs) is
// *blocking*: at the bound, submit parks the submitting thread. A network
// front door must never do that — a tenant at quota gets an immediate,
// typed rejection (the 429 family) while other tenants keep flowing. So the
// controller keeps its own ledgers: per-tenant outstanding counts (admitted
// at submit, retired by the run's completion callback — strictly after the
// scheduler retired the run, which is why the engine-level bound can never
// actually block underneath it), a
// sliding rate window per tenant, and one global outstanding bound shared
// by everyone. Every rejection is tallied on the tenant's CostAccount.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "src/service/codec.hpp"
#include "src/service/tenant.hpp"

namespace ebem::service {

/// The controller-wide picture the stats endpoint reports.
struct AdmissionStats {
  std::size_t global_outstanding = 0;
  std::size_t global_peak_outstanding = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
};

class AdmissionController {
 public:
  /// `max_global_outstanding` bounds runs outstanding across all tenants
  /// (must be >= 1 — a service that can run nothing is a config error).
  explicit AdmissionController(std::size_t max_global_outstanding);

  /// Admit one run of `elements` meshed elements for this tenant, or throw
  /// RequestError with the first matching typed rejection, in order:
  /// shutting_down, model_too_large, quota_exceeded (at — or with a zero —
  /// outstanding quota), rate_limited, overloaded (global bound). On
  /// success the tenant's and the global outstanding counts are up; the
  /// caller owes a retire() once the run is billed. Rejections are
  /// recorded on the tenant's account before the throw.
  void admit(TenantSession& session, std::size_t elements);

  /// Release one admitted run (the run is terminal and billed). Balanced
  /// with admit() by the dispatcher.
  void retire(TenantSession& session);

  /// Stop admitting: every subsequent admit() throws shutting_down.
  void begin_shutdown();

  [[nodiscard]] AdmissionStats stats() const;

  /// This tenant's ledger under the controller's lock (outstanding / peak).
  [[nodiscard]] AdmissionLedger ledger_snapshot(TenantSession& session) const;

 private:
  [[noreturn]] void reject(TenantSession& session, ErrorCode code, const std::string& message);

  mutable std::mutex mutex_;
  std::size_t max_global_outstanding_;
  std::size_t global_outstanding_ = 0;
  std::size_t global_peak_outstanding_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  bool shutting_down_ = false;
};

}  // namespace ebem::service
