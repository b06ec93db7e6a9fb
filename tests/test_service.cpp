// The engine-as-a-service front door, end to end: the strict wire codec
// (parse/reject/round-trip), line framing under truncation and overflow,
// loopback request/response parity against the direct Engine::analyze
// numbers, admission control (zero quotas, oversized models, rate limits,
// the global overload valve), per-tenant warm-cache isolation, per-tenant
// cost accounts reconciling with the per-run reports, concurrent submits
// from many client threads staying inside the backpressure bound, and the
// POSIX socket server speaking the same protocol over real descriptors.
//
// Every suite here is named Service* — the CI TSan job filters on that.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/common/error.hpp"
#include "src/engine/engine.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/la/blas1.hpp"
#include "src/service/admission.hpp"
#include "src/service/codec.hpp"
#include "src/service/dispatcher.hpp"
#include "src/service/loopback.hpp"
#include "src/service/server.hpp"
#include "src/service/tenant.hpp"

namespace ebem::service {
namespace {

// A small two-tenant service: "acme" with roomy quotas, "gadget" with tight
// ones. Serial compute keeps the numbers deterministic where tests compare
// against direct engine runs.
ServiceConfig small_config() {
  ServiceConfig config;
  TenantConfig acme;
  acme.name = "acme";
  acme.quotas.max_outstanding_runs = 8;
  TenantConfig gadget;
  gadget.name = "gadget";
  gadget.quotas.max_outstanding_runs = 2;
  gadget.quotas.max_elements_per_model = 50;
  config.tenants = {acme, gadget};
  return config;
}

std::string submit_line(const std::string& tenant, std::size_t cells,
                        const std::string& type = "submit_analysis") {
  const double extent = 5.0 * static_cast<double>(cells);
  return std::string("{\"type\":\"") + type + "\",\"tenant\":\"" + tenant +
         "\",\"model\":{\"grid\":{\"length_x\":" + std::to_string(extent) +
         ",\"length_y\":" + std::to_string(extent) + ",\"cells_x\":" + std::to_string(cells) +
         ",\"cells_y\":" + std::to_string(cells) +
         "},\"soil\":{\"conductivities\":[0.005,0.016],\"thicknesses\":[1.0]}}}";
}

std::string report_line(const std::string& tenant, double run_id, int wait_ms = 30'000) {
  return "{\"type\":\"get_report\",\"tenant\":\"" + tenant +
         "\",\"run_id\":" + std::to_string(static_cast<long long>(run_id)) +
         ",\"wait_ms\":" + std::to_string(wait_ms) + "}";
}

/// The model submit_line(cells) describes, built directly.
bem::BemModel direct_model(std::size_t cells) {
  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells);
  spec.length_y = 5.0 * static_cast<double>(cells);
  spec.cells_x = cells;
  spec.cells_y = cells;
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  return bem::BemModel(geom::Mesh::build(geom::make_rect_grid(spec)), soil);
}

double field(const Json& response, const char* key) {
  const Json* value = response.find(key);
  EXPECT_NE(value, nullptr) << "missing field " << key << " in " << response.dump();
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

std::string text(const Json& response, const char* key) {
  const Json* value = response.find(key);
  return value != nullptr && value->is_string() ? value->as_string() : std::string();
}

// ---------------------------------------------------------------------------
// Codec: JSON value
// ---------------------------------------------------------------------------

TEST(ServiceCodec, ParsesAndRoundTripsDocuments) {
  const std::string line =
      "{\"a\":[1,2.5,-3e2],\"b\":{\"c\":true,\"d\":null},\"s\":\"q\\\"\\n\\u00e9\"}";
  const std::optional<Json> document = Json::parse(line);
  ASSERT_TRUE(document.has_value());
  EXPECT_DOUBLE_EQ(document->find("a")->as_array()[2].as_number(), -300.0);
  EXPECT_TRUE(document->find("b")->find("c")->as_bool());
  EXPECT_TRUE(document->find("b")->find("d")->is_null());
  EXPECT_EQ(document->find("s")->as_string(), "q\"\n\xc3\xa9");

  const std::optional<Json> reparsed = Json::parse(document->dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->dump(), document->dump());
}

TEST(ServiceCodec, NumberPrecisionSurvivesTheRoundTrip) {
  Json::Object object;
  object.emplace("x", Json(0.1234567890123456789));
  object.emplace("y", Json(1e-308));
  const std::string dumped = Json(std::move(object)).dump();
  const std::optional<Json> reparsed = Json::parse(dumped);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->find("x")->as_number(), 0.1234567890123456789);
  EXPECT_EQ(reparsed->find("y")->as_number(), 1e-308);
}

TEST(ServiceCodec, RejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(Json::parse("", &error).has_value());
  EXPECT_FALSE(Json::parse("{", &error).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1,}", &error).has_value());  // trailing comma
  EXPECT_FALSE(Json::parse("{\"a\":1} x", &error).has_value());  // trailing garbage
  EXPECT_FALSE(Json::parse("{'a':1}", &error).has_value());      // single quotes
  EXPECT_FALSE(Json::parse("{\"a\":NaN}", &error).has_value());
  EXPECT_FALSE(Json::parse("{\"a\":01}", &error).has_value());  // leading zero
  EXPECT_FALSE(Json::parse("{\"a\":1e}", &error).has_value());
  EXPECT_FALSE(Json::parse("\"\\uD800\"", &error).has_value());  // unpaired surrogate
  EXPECT_FALSE(Json::parse("{\"a\":1,\"a\":2}", &error).has_value());  // duplicate key
  EXPECT_FALSE(error.empty());

  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  EXPECT_FALSE(Json::parse(deep, &error).has_value());  // nesting bound
}

// ---------------------------------------------------------------------------
// Codec: request schema
// ---------------------------------------------------------------------------

TEST(ServiceCodec, DecodesASubmitRequest) {
  const Request request = decode_request(submit_line("acme", 3));
  const auto* submit = std::get_if<SubmitRequest>(&request);
  ASSERT_NE(submit, nullptr);
  EXPECT_EQ(submit->tenant, "acme");
  EXPECT_FALSE(submit->factor_solve);
  EXPECT_EQ(submit->model.grid.cells_x, 3u);
  ASSERT_EQ(submit->model.layers.size(), 2u);
  EXPECT_DOUBLE_EQ(submit->model.layers[0].conductivity, 0.005);
  EXPECT_DOUBLE_EQ(submit->model.layers[0].thickness, 1.0);
}

TEST(ServiceCodec, TypedRejectionsForBadRequests) {
  const auto code_of = [](const std::string& line) {
    try {
      (void)decode_request(line);
    } catch (const RequestError& error) {
      return error.code();
    }
    return ErrorCode::kInternal;
  };
  EXPECT_EQ(code_of("not json"), ErrorCode::kMalformedRequest);
  EXPECT_EQ(code_of("[1,2,3]"), ErrorCode::kMalformedRequest);
  EXPECT_EQ(code_of("{\"type\":\"fly_to_the_moon\"}"), ErrorCode::kMalformedRequest);
  EXPECT_EQ(code_of("{\"type\":\"submit_analysis\"}"), ErrorCode::kInvalidArgument);
  // Out-of-range geometry and soil are stopped at the boundary.
  std::string negative = submit_line("acme", 3);
  negative.replace(negative.find("\"length_x\":15"), 14, "\"length_x\":-5");
  EXPECT_EQ(code_of(negative), ErrorCode::kInvalidArgument);
  std::string bad_soil = submit_line("acme", 3);
  bad_soil.replace(bad_soil.find("[0.005"), 6, "[-0.005");
  EXPECT_EQ(code_of(bad_soil), ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of("{\"type\":\"get_report\",\"tenant\":\"acme\",\"run_id\":0}"),
            ErrorCode::kInvalidArgument);  // ids start at 1
  EXPECT_EQ(code_of("{\"type\":\"get_report\",\"tenant\":\"acme\",\"run_id\":1.5}"),
            ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(ServiceFraming, ReassemblesSplitFramesAndStripsCarriageReturns) {
  LineBuffer buffer;
  buffer.append("{\"a\":");
  EXPECT_FALSE(buffer.pop_line().has_value());  // truncated frame: not delivered
  buffer.append("1}\r\n{\"b\":2}\n{\"c\":");
  EXPECT_EQ(buffer.pop_line().value(), "{\"a\":1}");
  EXPECT_EQ(buffer.pop_line().value(), "{\"b\":2}");
  EXPECT_FALSE(buffer.pop_line().has_value());
  EXPECT_GT(buffer.pending_bytes(), 0u);
  EXPECT_FALSE(buffer.overflowed());
}

TEST(ServiceFraming, OversizedLinesTripTheOverflowFlagNotTheAllocator) {
  LineBuffer buffer(64);
  buffer.append(std::string(200, 'x'));
  EXPECT_TRUE(buffer.overflowed());
  EXPECT_FALSE(buffer.pop_line().has_value());
}

// ---------------------------------------------------------------------------
// Loopback end-to-end: parity with the direct engine
// ---------------------------------------------------------------------------

TEST(ServiceLoopback, AnalysisResponseMatchesDirectEngineAnalyze) {
  Dispatcher dispatcher(small_config());
  LoopbackClient client(dispatcher);

  const Json submitted = decode_response(client.call(submit_line("acme", 4)));
  ASSERT_EQ(text(submitted, "type"), "submitted") << submitted.dump();
  const double run_id = field(submitted, "run_id");

  const Json report = decode_response(client.call(report_line("acme", run_id)));
  ASSERT_EQ(text(report, "status"), "done") << report.dump();

  engine::Engine direct;
  const bem::AnalysisResult reference = direct.analyze(direct_model(4));
  EXPECT_NEAR(field(report, "equivalent_resistance"), reference.equivalent_resistance,
              1e-12 * reference.equivalent_resistance);
  EXPECT_NEAR(field(report, "total_current"), reference.total_current,
              1e-12 * reference.total_current);
  const double sigma_l2 = std::sqrt(la::dot(reference.sigma, reference.sigma));
  EXPECT_NEAR(field(report, "sigma_l2"), sigma_l2, 1e-12 * sigma_l2);
  EXPECT_EQ(static_cast<std::size_t>(field(report, "elements")),
            direct_model(4).element_count());
}

TEST(ServiceLoopback, FactorSolvePathAgreesWithTheAnalysisPath) {
  Dispatcher dispatcher(small_config());
  LoopbackClient client(dispatcher);

  const Json a = decode_response(client.call(submit_line("acme", 3)));
  const Json b = decode_response(client.call(submit_line("acme", 3, "submit_factor_solve")));
  const Json analysis =
      decode_response(client.call(report_line("acme", field(a, "run_id"))));
  const Json factored =
      decode_response(client.call(report_line("acme", field(b, "run_id"))));
  ASSERT_EQ(text(analysis, "status"), "done") << analysis.dump();
  ASSERT_EQ(text(factored, "status"), "done") << factored.dump();
  EXPECT_TRUE(factored.find("factor_solve")->as_bool());

  const double reference = field(analysis, "equivalent_resistance");
  EXPECT_NEAR(field(factored, "equivalent_resistance"), reference, 1e-12 * reference);
  EXPECT_NEAR(field(factored, "sigma_l2"), field(analysis, "sigma_l2"),
              1e-12 * field(analysis, "sigma_l2"));
}

TEST(ServiceLoopback, PollingAnInFlightRunReportsQueuedOrRunningNotAnError) {
  Dispatcher dispatcher(small_config());
  LoopbackClient client(dispatcher);
  const Json submitted = decode_response(client.call(submit_line("acme", 6)));
  const double run_id = field(submitted, "run_id");
  // Zero-wait poll immediately after submit: whatever the stage, the
  // response is a well-formed non-terminal (or already-done) report.
  const Json polled = decode_response(client.call(report_line("acme", run_id, 0)));
  EXPECT_EQ(text(polled, "type"), "report");
  const std::string status = text(polled, "status");
  EXPECT_TRUE(status == "queued" || status == "running" || status == "done") << status;
  // And the terminal report is still reachable afterwards.
  const Json final_report = decode_response(client.call(report_line("acme", run_id)));
  EXPECT_EQ(text(final_report, "status"), "done");
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(ServiceAdmission, UnknownTenantAndForeignRunsAreRefused) {
  Dispatcher dispatcher(small_config());
  LoopbackClient client(dispatcher);
  const Json unknown = decode_response(client.call(submit_line("evil_corp", 3)));
  EXPECT_EQ(text(unknown, "code"), "unknown_tenant");

  const Json submitted = decode_response(client.call(submit_line("acme", 3)));
  const double run_id = field(submitted, "run_id");
  const Json foreign = decode_response(client.call(report_line("gadget", run_id)));
  EXPECT_EQ(text(foreign, "code"), "forbidden");
  const Json missing = decode_response(client.call(report_line("acme", 999)));
  EXPECT_EQ(text(missing, "code"), "unknown_run");
}

TEST(ServiceAdmission, ZeroQuotaTenantIsRejectedButStillBilledTheRejection) {
  ServiceConfig config = small_config();
  config.tenants[1].quotas.max_outstanding_runs = 0;  // gadget suspended
  Dispatcher dispatcher(config);
  LoopbackClient client(dispatcher);

  const Json rejected = decode_response(client.call(submit_line("gadget", 3)));
  EXPECT_EQ(text(rejected, "code"), "quota_exceeded");
  const Json stats = decode_response(
      client.call("{\"type\":\"stats\",\"tenant\":\"gadget\"}"));
  EXPECT_DOUBLE_EQ(field(stats, "runs_rejected"), 1.0);
  EXPECT_DOUBLE_EQ(field(stats, "runs_completed"), 0.0);
  // The other tenant is unaffected.
  EXPECT_EQ(text(decode_response(client.call(submit_line("acme", 3))), "type"), "submitted");
}

TEST(ServiceAdmission, OversizedModelsAreStoppedBeforeTheEngine) {
  Dispatcher dispatcher(small_config());
  LoopbackClient client(dispatcher);
  // gadget's element quota is 50; a 6x6 grid meshes to 84 conductor
  // segments. The engine must never have seen the run.
  const Json rejected = decode_response(client.call(submit_line("gadget", 6)));
  EXPECT_EQ(text(rejected, "code"), "model_too_large");
  const Json stats = decode_response(
      client.call("{\"type\":\"stats\",\"tenant\":\"gadget\"}"));
  EXPECT_DOUBLE_EQ(field(stats, "engine_submitted"), 0.0);
  EXPECT_DOUBLE_EQ(field(stats, "runs_rejected"), 1.0);
}

TEST(ServiceAdmission, RateWindowLimitsAdmissionsPerSecond) {
  ServiceConfig config = small_config();
  config.tenants[0].quotas.max_runs_per_window = 2;
  config.tenants[0].quotas.window_seconds = 3600.0;  // nothing expires mid-test
  Dispatcher dispatcher(config);
  LoopbackClient client(dispatcher);

  EXPECT_EQ(text(decode_response(client.call(submit_line("acme", 2))), "type"), "submitted");
  EXPECT_EQ(text(decode_response(client.call(submit_line("acme", 2))), "type"), "submitted");
  const Json third = decode_response(client.call(submit_line("acme", 2)));
  EXPECT_EQ(text(third, "code"), "rate_limited");
}

TEST(ServiceAdmission, GlobalBoundRejectsAsOverloadedAcrossTenants) {
  ServiceConfig config = small_config();
  config.max_global_outstanding = 1;
  Dispatcher dispatcher(config);
  LoopbackClient client(dispatcher);

  const Json first = decode_response(client.call(submit_line("acme", 10)));
  ASSERT_EQ(text(first, "type"), "submitted");
  // While acme's (large) run is outstanding, even the *other* tenant bounces.
  const Json second = decode_response(client.call(submit_line("gadget", 2)));
  EXPECT_EQ(text(second, "code"), "overloaded");
  // Harvesting the first run frees the valve.
  EXPECT_EQ(text(decode_response(client.call(report_line("acme", field(first, "run_id")))),
                 "status"),
            "done");
  EXPECT_EQ(text(decode_response(client.call(submit_line("gadget", 2))), "type"), "submitted");
}

// ---------------------------------------------------------------------------
// Tenant isolation and billing
// ---------------------------------------------------------------------------

TEST(ServiceTenants, WarmCacheIsolationSurvivesAnotherTenantsPhysicsChurn) {
  // acme submits the same model twice; gadget churns a *different* soil in
  // between. With per-tenant engines the second acme run replays acme's
  // warm cache — gadget's physics never evicts it. (One shared engine
  // would install a fresh cache on every physics flip.)
  Dispatcher dispatcher(small_config());
  LoopbackClient client(dispatcher);

  const Json first = decode_response(client.call(submit_line("acme", 4)));
  (void)client.call(report_line("acme", field(first, "run_id")));

  std::string other_soil = submit_line("gadget", 3);
  other_soil.replace(other_soil.find("[0.005"), 6, "[0.042");
  const Json churn = decode_response(client.call(other_soil));
  (void)client.call(report_line("gadget", field(churn, "run_id")));

  const Json second = decode_response(client.call(submit_line("acme", 4)));
  const Json report = decode_response(client.call(report_line("acme", field(second, "run_id"))));
  ASSERT_EQ(text(report, "status"), "done");
  EXPECT_GT(field(report, "cache_hits"), 0.0);
  EXPECT_DOUBLE_EQ(field(report, "cache_misses"), 0.0)
      << "an identical resubmission should replay entirely from the warm cache";
}

TEST(ServiceTenants, AccountsReconcileWithTheSumOfPerRunReports) {
  Dispatcher dispatcher(small_config());
  LoopbackClient client(dispatcher);

  double billed_total = 0.0;
  double billed_elements = 0.0;
  for (const std::size_t cells : {2, 3, 4}) {
    const Json submitted = decode_response(client.call(submit_line("acme", cells)));
    const Json report =
        decode_response(client.call(report_line("acme", field(submitted, "run_id"))));
    ASSERT_EQ(text(report, "status"), "done");
    billed_total += field(report, "total_seconds");
    billed_elements += field(report, "elements");
  }

  const Json stats = decode_response(client.call("{\"type\":\"stats\",\"tenant\":\"acme\"}"));
  EXPECT_DOUBLE_EQ(field(stats, "runs_completed"), 3.0);
  EXPECT_DOUBLE_EQ(field(stats, "elements_billed"), billed_elements);
  // The account *is* the merge of exactly those per-run reports.
  EXPECT_NEAR(field(stats, "total_seconds"), billed_total, 1e-9);
  EXPECT_GE(field(stats, "assembly_seconds"), 0.0);
  EXPECT_LE(field(stats, "assembly_seconds") + field(stats, "solve_seconds"),
            field(stats, "total_seconds") + 1e-9);
}

TEST(ServiceTenants, ConcurrentSubmitsStayInsideTheBackpressureBound) {
  ServiceConfig config = small_config();
  config.tenants[0].quotas.max_outstanding_runs = 3;
  Dispatcher dispatcher(config);

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 4;
  std::vector<std::thread> clients;
  std::atomic<int> accepted{0};
  std::atomic<int> quota_rejected{0};
  std::atomic<int> other{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&dispatcher, &accepted, &quota_rejected, &other] {
      LoopbackClient client(dispatcher);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const Json response = decode_response(client.call(submit_line("acme", 2)));
        const std::string type = text(response, "type");
        if (type == "submitted") {
          accepted.fetch_add(1);
          // Immediately consume the report so slots recycle under load.
          (void)client.call(report_line("acme", field(response, "run_id")));
        } else if (text(response, "code") == "quota_exceeded") {
          quota_rejected.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(accepted.load() + quota_rejected.load(),
            static_cast<int>(kThreads * kPerThread));
  EXPECT_GT(accepted.load(), 0);

  LoopbackClient client(dispatcher);
  const Json stats = decode_response(client.call("{\"type\":\"stats\",\"tenant\":\"acme\"}"));
  // The acceptance criterion: peak outstanding never exceeded the quota,
  // rejections were typed, and the account balances the accepted work.
  EXPECT_LE(field(stats, "peak_outstanding"), 3.0);
  EXPECT_LE(field(stats, "engine_peak_outstanding"), 3.0);
  EXPECT_DOUBLE_EQ(field(stats, "runs_completed"), static_cast<double>(accepted.load()));
  EXPECT_DOUBLE_EQ(field(stats, "runs_rejected"), static_cast<double>(quota_rejected.load()));
  EXPECT_DOUBLE_EQ(field(stats, "outstanding"), 0.0);
}

TEST(ServiceTenants, DoneImpliesBilledAndSlotFreeAtQuotaOne) {
  // The completion callback bills and retires the slot before it publishes
  // the report: a client that reads "done" must find the run on its bill
  // and its quota-1 slot free for the very next submit.
  ServiceConfig config = small_config();
  config.tenants[0].quotas.max_outstanding_runs = 1;
  Dispatcher dispatcher(config);
  LoopbackClient client(dispatcher);
  TenantSession& acme = *dispatcher.registry().find("acme");

  for (int k = 1; k <= 50; ++k) {
    const Json submitted = decode_response(client.call(submit_line("acme", 2)));
    ASSERT_EQ(text(submitted, "type"), "submitted") << "round " << k << ": "
                                                    << submitted.dump();
    const Json report =
        decode_response(client.call(report_line("acme", field(submitted, "run_id"))));
    ASSERT_EQ(text(report, "status"), "done") << "round " << k;
    // Probe the ledgers directly first — the narrowest window after "done".
    ASSERT_EQ(dispatcher.admission().ledger_snapshot(acme).outstanding, 0u) << "round " << k;
    ASSERT_EQ(acme.account().runs_completed(), static_cast<std::uint64_t>(k)) << "round " << k;
    const Json stats = decode_response(client.call("{\"type\":\"stats\",\"tenant\":\"acme\"}"));
    ASSERT_DOUBLE_EQ(field(stats, "runs_completed"), static_cast<double>(k)) << "round " << k;
    ASSERT_DOUBLE_EQ(field(stats, "outstanding"), 0.0) << "round " << k;
  }
}

// ---------------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------------

TEST(ServiceShutdown, DrainsInFlightRunsAndKeepsAnsweringStats) {
  Dispatcher dispatcher(small_config());
  LoopbackClient client(dispatcher);
  const Json submitted = decode_response(client.call(submit_line("acme", 5)));
  ASSERT_EQ(text(submitted, "type"), "submitted");

  const Json ack = decode_response(client.call("{\"type\":\"shutdown\"}"));
  EXPECT_EQ(text(ack, "type"), "shutdown_ok");
  // Drained and billed: the in-flight run completed, its slot retired.
  const Json stats = decode_response(client.call("{\"type\":\"stats\",\"tenant\":\"acme\"}"));
  EXPECT_DOUBLE_EQ(field(stats, "runs_completed"), 1.0);
  EXPECT_DOUBLE_EQ(field(stats, "outstanding"), 0.0);
  // New work is refused, typed; the terminal report is still readable.
  EXPECT_EQ(text(decode_response(client.call(submit_line("acme", 2))), "code"),
            "shutting_down");
  EXPECT_EQ(text(decode_response(client.call(report_line("acme", field(submitted, "run_id")))),
                 "status"),
            "done");
  // Idempotent.
  EXPECT_EQ(text(decode_response(client.call("{\"type\":\"shutdown\"}")), "type"),
            "shutdown_ok");
}

TEST(ServiceShutdown, SubmitStormWithNoReportsIsFullyBilledByShutdown) {
  // Nobody ever asks for a report: billing must still happen, and shutdown
  // racing the storm must leave no admitted run unbilled.
  Dispatcher dispatcher(small_config());
  constexpr std::size_t kThreads = 4;
  std::atomic<int> acme_accepted{0};
  std::atomic<int> gadget_accepted{0};
  std::atomic<double> acme_elements{0.0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      LoopbackClient client(dispatcher);
      const std::string tenant = t % 2 == 0 ? "acme" : "gadget";
      std::atomic<int>& accepted = t % 2 == 0 ? acme_accepted : gadget_accepted;
      // Storm until the shutdown refuses us (quota rejections just retry).
      for (;;) {
        const Json response = decode_response(client.call(submit_line(tenant, 2)));
        if (text(response, "type") == "submitted") {
          accepted.fetch_add(1);
          if (tenant == "acme") acme_elements.fetch_add(field(response, "elements"));
        } else if (text(response, "code") == "shutting_down") {
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  dispatcher.shutdown();
  // Admission is closed, so outstanding can only have been retired.
  EXPECT_EQ(dispatcher.stats().admission.global_outstanding, 0u);
  for (std::thread& thread : clients) thread.join();

  const DispatcherStats stats = dispatcher.stats();
  EXPECT_GT(stats.admission.admitted, 0u);
  EXPECT_EQ(stats.admission.global_outstanding, 0u);
  EXPECT_EQ(stats.admission.admitted,
            static_cast<std::uint64_t>(acme_accepted.load() + gadget_accepted.load()));
  EXPECT_EQ(stats.runs_harvested, stats.admission.admitted);
  EXPECT_EQ(stats.runs_tracked, stats.admission.admitted);

  LoopbackClient client(dispatcher);
  for (const char* tenant : {"acme", "gadget"}) {
    const Json tenant_stats = decode_response(
        client.call(std::string("{\"type\":\"stats\",\"tenant\":\"") + tenant + "\"}"));
    const double accepted = std::string(tenant) == "acme" ? acme_accepted.load()
                                                          : gadget_accepted.load();
    EXPECT_DOUBLE_EQ(field(tenant_stats, "runs_completed") + field(tenant_stats, "runs_failed"),
                     accepted)
        << tenant;
    EXPECT_DOUBLE_EQ(field(tenant_stats, "outstanding"), 0.0) << tenant;
  }

  // The bill is exactly the merge of the per-run reports, read afterwards.
  double billed_total = 0.0;
  double billed_elements = 0.0;
  for (std::uint64_t id = 1; id <= stats.admission.admitted; ++id) {
    const Json report =
        decode_response(client.call(report_line("acme", static_cast<double>(id), 0)));
    if (text(report, "code") == "forbidden") continue;  // gadget's run
    ASSERT_EQ(text(report, "status"), "done") << report.dump();
    billed_total += field(report, "total_seconds");
    billed_elements += field(report, "elements");
  }
  const Json acme = decode_response(client.call("{\"type\":\"stats\",\"tenant\":\"acme\"}"));
  EXPECT_DOUBLE_EQ(field(acme, "elements_billed"), billed_elements);
  EXPECT_DOUBLE_EQ(billed_elements, acme_elements.load());
  EXPECT_NEAR(field(acme, "total_seconds"), billed_total, 1e-9);
}

// ---------------------------------------------------------------------------
// Socket server
// ---------------------------------------------------------------------------

TEST(ServiceServer, RoundTripsTheProtocolOverARealSocket) {
  Dispatcher dispatcher(small_config());
  Server server(dispatcher);  // ephemeral port
  ASSERT_GT(server.port(), 0);

  Client client(server.port());
  const Json submitted = decode_response(client.call(submit_line("acme", 4)));
  ASSERT_EQ(text(submitted, "type"), "submitted") << submitted.dump();
  const Json report = decode_response(client.call(report_line("acme", field(submitted, "run_id"))));
  ASSERT_EQ(text(report, "status"), "done") << report.dump();

  engine::Engine direct;
  const bem::AnalysisResult reference = direct.analyze(direct_model(4));
  EXPECT_NEAR(field(report, "equivalent_resistance"), reference.equivalent_resistance,
              1e-12 * reference.equivalent_resistance);
  server.stop();
}

TEST(ServiceServer, ManyConnectionsShareOneDispatcher) {
  Dispatcher dispatcher(small_config());
  Server server(dispatcher);

  constexpr std::size_t kClients = 5;
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&server, &done] {
      Client client(server.port());
      const Json submitted = decode_response(client.call(submit_line("acme", 2)));
      if (text(submitted, "type") != "submitted") return;
      const Json report =
          decode_response(client.call(report_line("acme", field(submitted, "run_id"))));
      if (text(report, "status") == "done") done.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(done.load(), static_cast<int>(kClients));
  EXPECT_GE(server.connections_accepted(), kClients);
  server.stop();
}

TEST(ServiceServer, GarbageFramesGetTypedErrorsAndTheConnectionSurvives) {
  Dispatcher dispatcher(small_config());
  Server server(dispatcher);
  Client client(server.port());

  EXPECT_EQ(text(decode_response(client.call("this is not json")), "code"),
            "malformed_request");
  EXPECT_EQ(text(decode_response(client.call("{\"type\":\"warp_drive\"}")), "code"),
            "malformed_request");
  // The same connection still serves valid requests afterwards.
  EXPECT_EQ(text(decode_response(client.call(submit_line("acme", 2))), "type"), "submitted");
  server.stop();
}

TEST(ServiceServer, SplitFramesAcrossWritesAreReassembled) {
  Dispatcher dispatcher(small_config());
  Server server(dispatcher);
  Client client(server.port());

  const std::string line = submit_line("acme", 2) + "\n";
  client.send_raw(line.substr(0, 25));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.send_raw(line.substr(25));
  EXPECT_EQ(text(decode_response(client.read_line()), "type"), "submitted");
  server.stop();
}

TEST(ServiceServer, StopWithLiveClientsIsPromptAndSafe) {
  Dispatcher dispatcher(small_config());
  auto server = std::make_unique<Server>(dispatcher);
  Client client(server->port());
  // A connected, idle client must not block stop(); its recv is shut down.
  server->stop();
  EXPECT_THROW((void)client.call(submit_line("acme", 2)), ebem::IoError);
  server.reset();
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

TEST(ServiceConfigValidation, RejectsContradictoryConfigs) {
  ServiceConfig empty;
  EXPECT_THROW(Dispatcher dispatcher(empty), ebem::InvalidArgument);

  ServiceConfig duplicate = small_config();
  duplicate.tenants.push_back(duplicate.tenants[0]);
  EXPECT_THROW(Dispatcher dispatcher(duplicate), ebem::InvalidArgument);

  ServiceConfig bad_gpr = small_config();
  bad_gpr.tenants[0].gpr = 0.0;
  EXPECT_THROW(Dispatcher dispatcher(bad_gpr), ebem::InvalidArgument);
}

}  // namespace
}  // namespace ebem::service
