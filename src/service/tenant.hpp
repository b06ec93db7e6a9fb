// service::tenant — per-tenant sessions, quotas, and cost accounts.
//
// Multi-tenancy in this service is isolation by construction: every tenant
// gets its own engine::Engine (own warm CongruenceCache, own scheduler, own
// session PhaseReport) bound into an engine::Study pinned to the tenant's
// physics. The engines share one par::ThreadPool — compute is pooled,
// *state* is not — so tenant A's design ladder keeps replaying its warm
// cache no matter how often tenant B's soil churn would have invalidated a
// shared one. (The Engine's physics-fingerprint guard drops its cache on
// any physics change; with one engine per tenant that guard only ever sees
// that tenant's physics.)
//
// Each session also carries the tenant's declared quotas (admission.hpp
// enforces them), its admission ledger, and a CostAccount: the cumulative
// bill built by merging every completed run's PhaseReport — assembly /
// factor / solve seconds, cache hits, tiles, pairs — plus run/element
// tallies, queryable live through the stats endpoint.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/bem/element.hpp"
#include "src/common/phase_report.hpp"
#include "src/engine/engine.hpp"
#include "src/engine/study.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/service/codec.hpp"

namespace ebem::service {

/// Per-tenant admission limits. Zeros mean "unlimited" everywhere except
/// max_outstanding_runs, where 0 is a real (revoked) quota: every submit is
/// rejected — the way an operator suspends a tenant without unregistering
/// it and losing its bill.
struct TenantQuotas {
  /// Runs submitted but not yet billed. 0 rejects every submit.
  std::size_t max_outstanding_runs = 4;
  /// Meshed element count bound per model; checked after meshing, before
  /// the engine sees the run. 0 = unlimited.
  std::size_t max_elements_per_model = 0;
  /// Rate limit: at most this many admissions per sliding window_seconds
  /// window. 0 = unlimited.
  std::size_t max_runs_per_window = 0;
  double window_seconds = 1.0;
};

/// One tenant's registration: name on the wire, quotas, and the fixed GPR
/// its Study applies to every submitted model.
struct TenantConfig {
  std::string name;
  TenantQuotas quotas;
  double gpr = 1.0;  ///< Ground Potential Rise [V] of every run
};

/// The whole service's configuration: who may call, and how much compute
/// backs them.
struct ServiceConfig {
  std::vector<TenantConfig> tenants;
  /// Workers in the pool shared by every tenant engine; 1 = serial engines.
  std::size_t num_threads = 1;
  /// Pipeline width of each tenant engine's scheduler.
  std::size_t pipeline_width = 2;
  /// Global bound on runs outstanding across all tenants — the service-wide
  /// backpressure valve (typed "overloaded" rejection at the bound).
  /// 0 resolves to the sum of the tenant outstanding quotas.
  std::size_t max_global_outstanding = 0;

  /// Throws ebem::InvalidArgument on duplicate/empty tenant names or
  /// non-positive gpr / window_seconds.
  void validate() const;

  /// The resolved global bound (sum of tenant quotas when 0).
  [[nodiscard]] std::size_t resolved_global_outstanding() const;
};

/// A tenant's cumulative bill. Completed runs merge their PhaseReport in
/// (thread-safe — PhaseReport is a locking sink) and bump the tallies;
/// rejections are tallied too, so "how often did we say no" is as queryable
/// as "how much did we do".
class CostAccount {
 public:
  /// Fold one completed run into the bill: its report, its meshed element
  /// count, and whether it failed (failed runs bill their report too — the
  /// compute happened).
  void bill_run(const PhaseReport& run_report, std::size_t elements, bool failed);

  void record_rejection(ErrorCode code);

  [[nodiscard]] std::uint64_t runs_completed() const {
    return runs_completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t runs_failed() const {
    return runs_failed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t runs_rejected() const {
    return runs_rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t elements_billed() const {
    return elements_billed_.load(std::memory_order_relaxed);
  }

  /// The merged per-run reports — phase seconds and counters. Live-safe
  /// reads via counter()/counters_snapshot()/wall_seconds on the returned
  /// reference (PhaseReport locks internally).
  [[nodiscard]] const PhaseReport& bill() const { return bill_; }

 private:
  PhaseReport bill_;
  std::atomic<std::uint64_t> runs_completed_{0};
  std::atomic<std::uint64_t> runs_failed_{0};
  std::atomic<std::uint64_t> runs_rejected_{0};
  std::atomic<std::uint64_t> elements_billed_{0};
};

/// The admission ledger AdmissionController keeps per tenant: outstanding
/// runs (admitted, not yet retired), the observed peak, and the sliding
/// rate window. Guarded by the controller's mutex, not its own.
struct AdmissionLedger {
  std::size_t outstanding = 0;
  std::size_t peak_outstanding = 0;
  std::deque<double> window;  ///< admission timestamps [monotonic seconds]
};

/// Everything the service holds for one tenant: engine + study (warm state),
/// quotas, admission ledger, bill.
class TenantSession {
 public:
  /// `shared_pool` may be null (serial engines). The engine's
  /// max_pending_runs backstop is set from the outstanding quota; the
  /// admission controller rejects before that bound can ever block.
  TenantSession(const TenantConfig& config, par::ThreadPool* shared_pool,
                std::size_t pipeline_width);

  [[nodiscard]] const TenantConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] engine::Engine& engine() { return *engine_; }
  [[nodiscard]] engine::Study& study() { return *study_; }
  [[nodiscard]] CostAccount& account() { return account_; }
  [[nodiscard]] const CostAccount& account() const { return account_; }
  [[nodiscard]] AdmissionLedger& ledger() { return ledger_; }

 private:
  TenantConfig config_;
  std::unique_ptr<engine::Engine> engine_;
  std::unique_ptr<engine::Study> study_;
  CostAccount account_;
  AdmissionLedger ledger_;
};

/// Owns the shared pool and every tenant session; lookup by wire name.
class TenantRegistry {
 public:
  explicit TenantRegistry(const ServiceConfig& config);

  /// Null when the name is unregistered (callers map that to
  /// ErrorCode::kUnknownTenant).
  [[nodiscard]] TenantSession* find(const std::string& name);

  [[nodiscard]] std::vector<TenantSession*> sessions();

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] std::size_t pool_threads() const { return pool_ ? pool_->num_threads() : 1; }

 private:
  ServiceConfig config_;
  std::unique_ptr<par::ThreadPool> pool_;  ///< shared compute; null = serial
  // Sessions are created once at construction and never move: stable
  // addresses are the lookup contract.
  std::map<std::string, std::unique_ptr<TenantSession>> sessions_;
};

/// Mesh a validated wire ModelSpec into a BemModel (decode_request already
/// range-checked every field; this is pure construction).
[[nodiscard]] bem::BemModel build_model(const ModelSpec& spec);

}  // namespace ebem::service
