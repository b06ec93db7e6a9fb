// service_open: an open loop, then a closed loop, over a real loopback
// socket. In the open loop one sender thread submits seeded Poisson
// arrivals on schedule over its own connection; three harvester threads,
// each with its own connection, take the submitted runs FIFO and block on
// get_report until the done report arrives. A request's latency runs from
// when it was *due*, so a stall in the sender or the server charges every
// request queued behind it. In the closed loop each of the four
// connections submits a request and waits for its done report before
// sending the next, so the rate it reaches is what the whole request path
// (codec, I/O, admission, dispatch, scheduler queue, compute and report
// wait) sustains.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench/e2e/e2e.hpp"
#include "src/bem/analysis.hpp"
#include "src/common/hash.hpp"
#include "src/engine/engine.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/service/codec.hpp"
#include "src/service/dispatcher.hpp"
#include "src/service/server.hpp"

namespace e2e {

namespace {

using namespace ebem;
using service::Json;

constexpr std::size_t kTenants = 4;
constexpr std::size_t kQuota = 64;
constexpr std::size_t kHarvesters = 3;
constexpr double kFactorShare = 0.15;
constexpr std::size_t kAnalysisCells = 4;
constexpr std::size_t kFactorCells = 8;
constexpr double kCellPitch = 5.0;  // m
constexpr double kGpr = 1.0;
// A fixed count, so every run does the same work and keeps the same number
// of run records; the seed commit completes it in about one 4 s step.
constexpr std::size_t kClosedRequests = 2400;

/// Uniform in [0, 1) from a counter hash: request i's draws are a pure
/// function of (seed, i, stream).
double uniform(std::uint64_t seed, std::uint64_t index, std::uint64_t stream) {
  const std::uint64_t bits = hash_combine(hash_combine(splitmix64(seed), index), stream);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

struct TenantSoil {
  std::string name;
  double upper = 0.0;      ///< upper-layer conductivity [S/m]
  double lower = 0.0;      ///< lower-layer conductivity [S/m]
  double thickness = 0.0;  ///< upper-layer thickness [m]
};

/// Each tenant's own soil around one nominal two-layer soil. The soils do
/// not depend on the seed: a soil's image series sets the compute cost of
/// every request to its tenant, and a per-seed soil moved the server's run
/// time threefold between seeds.
std::vector<TenantSoil> tenant_soils() {
  std::vector<TenantSoil> soils;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const double scale = 0.85 + 0.1 * static_cast<double>(t);
    soils.push_back({"tenant" + std::to_string(t), 0.005 * scale, 0.016 / scale, 1.0 * scale});
  }
  return soils;
}

std::size_t cells_of(bool factor) { return factor ? kFactorCells : kAnalysisCells; }

std::string submit_line(const TenantSoil& soil, bool factor) {
  const std::size_t cells = cells_of(factor);
  const double extent = kCellPitch * static_cast<double>(cells);
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"type\":\"%s\",\"tenant\":\"%s\",\"model\":{\"grid\":{\"length_x\":%.17g,"
                "\"length_y\":%.17g,\"cells_x\":%zu,\"cells_y\":%zu},\"soil\":{"
                "\"conductivities\":[%.17g,%.17g],\"thicknesses\":[%.17g]}}}",
                factor ? "submit_factor_solve" : "submit_analysis", soil.name.c_str(), extent,
                extent, cells, cells, soil.upper, soil.lower, soil.thickness);
  return buffer;
}

std::string report_line(const std::string& tenant, std::uint64_t run_id) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "{\"type\":\"get_report\",\"tenant\":\"%s\",\"run_id\":%llu,\"wait_ms\":60000}",
                tenant.c_str(), static_cast<unsigned long long>(run_id));
  return buffer;
}

double number_field(const Json& json, const char* key) {
  const Json* value = json.find(key);
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

std::string text_field(const Json& json, const char* key) {
  const Json* value = json.find(key);
  return value != nullptr && value->is_string() ? value->as_string() : std::string();
}

/// One scheduled request and everything observed about it.
struct Request {
  double due_offset_s = 0.0;  ///< from the ladder's start
  std::size_t step = 0;
  std::size_t tenant = 0;
  bool factor = false;

  Clock::time_point due, sent, submitted, harvest_start, done;
  std::uint64_t run_id = 0;
  bool ok = false;          ///< done report received
  std::string error_code;   ///< rejection or failure
  double req = 0.0, current = 0.0, sigma_norm = 0.0;
  double server_total_s = 0.0, assembly_s = 0.0, solve_s = 0.0;
  double cache_hits = 0.0, cache_misses = 0.0, elements = 0.0;
};

/// Seeded Poisson arrivals for every ladder step, `step_seconds` each,
/// conditioned on the step's expected count: a Poisson process with a
/// known count places its arrivals uniformly, so every seed offers the
/// same load and only the arrival pattern varies.
std::vector<Request> make_schedule(std::uint64_t seed, double step_seconds) {
  std::vector<Request> requests;
  std::uint64_t index = 0;
  for (std::size_t step = 0; step < kLadderRates.size(); ++step) {
    const auto count = static_cast<std::size_t>(
        std::llround(static_cast<double>(kLadderRates[step]) * step_seconds));
    const std::size_t first = requests.size();
    for (std::size_t i = 0; i < count; ++i, ++index) {
      Request request;
      request.due_offset_s =
          (static_cast<double>(step) + uniform(seed, index, 0)) * step_seconds;
      request.step = step;
      request.tenant = static_cast<std::size_t>(uniform(seed, index, 1) * kTenants);
      request.factor = uniform(seed, index, 2) < kFactorShare;
      requests.push_back(request);
    }
    std::sort(requests.begin() + static_cast<std::ptrdiff_t>(first), requests.end(),
              [](const Request& a, const Request& b) { return a.due_offset_s < b.due_offset_s; });
  }
  return requests;
}

/// A running service: dispatcher, socket server and the four client
/// connections (declared in that order, so the clients close first).
struct ServiceState {
  std::vector<TenantSoil> soils;
  std::unique_ptr<service::Dispatcher> dispatcher;
  std::unique_ptr<service::Server> server;
  std::vector<std::unique_ptr<service::Client>> clients;  ///< [0] sends, the rest harvest
  std::vector<std::string> submit_lines;                  ///< [tenant * 2 + factor]
};

std::unique_ptr<ServiceState> service_setup() {
  auto state = std::make_unique<ServiceState>();
  state->soils = tenant_soils();
  service::ServiceConfig config;
  config.num_threads = kThreads;
  for (const TenantSoil& soil : state->soils) {
    service::TenantConfig tenant;
    tenant.name = soil.name;
    tenant.quotas.max_outstanding_runs = kQuota;
    tenant.gpr = kGpr;
    config.tenants.push_back(tenant);
  }
  state->dispatcher = std::make_unique<service::Dispatcher>(config);
  state->server = std::make_unique<service::Server>(*state->dispatcher);
  for (std::size_t c = 0; c < 1 + kHarvesters; ++c) {
    state->clients.push_back(std::make_unique<service::Client>(state->server->port()));
  }
  for (const TenantSoil& soil : state->soils) {
    state->submit_lines.push_back(submit_line(soil, false));
    state->submit_lines.push_back(submit_line(soil, true));
  }
  // Warm-up unit: one request of each kind per tenant, harvested.
  service::Client& client = *state->clients[0];
  for (std::size_t t = 0; t < kTenants; ++t) {
    for (const bool factor : {false, true}) {
      const Json submitted =
          service::decode_response(client.call(state->submit_lines[2 * t + factor]));
      const auto run_id = static_cast<std::uint64_t>(number_field(submitted, "run_id"));
      const Json report =
          service::decode_response(client.call(report_line(state->soils[t].name, run_id)));
      if (text_field(report, "status") != "done") {
        throw std::runtime_error("service warm-up request did not complete");
      }
    }
  }
  return state;
}

/// FIFO of submitted requests, handed from the sender to the harvesters.
class HandOff {
 public:
  void push(std::size_t index) {
    {
      const std::scoped_lock lock(mutex_);
      queue_.push_back(index);
    }
    cv_.notify_one();
  }
  void close() {
    {
      const std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// Next request index, or nullopt once closed and empty.
  std::optional<std::size_t> pop() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;
    const std::size_t index = queue_.front();
    queue_.pop_front();
    return index;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::size_t> queue_;
  bool closed_ = false;
};

/// Submit `request` over `client`; returns whether the service accepted it.
/// An IO or protocol failure or a refusal marks the request failed.
bool submit(const ServiceState& state, service::Client& client, Request& request) {
  request.sent = Clock::now();
  try {
    const std::string reply = client.call(state.submit_lines[2 * request.tenant + request.factor]);
    request.submitted = Clock::now();
    const Json response = service::decode_response(reply);
    if (text_field(response, "type") == "submitted") {
      request.run_id = static_cast<std::uint64_t>(number_field(response, "run_id"));
      return true;
    }
    request.error_code = text_field(response, "code");
  } catch (const std::exception&) {
    request.submitted = Clock::now();
    request.error_code = "client_error";
  }
  request.done = request.submitted;
  return false;
}

/// Block in get_report over `client` until the submitted `request` is done.
void await_report(const ServiceState& state, service::Client& client, Request& request) {
  request.harvest_start = Clock::now();
  Json report;
  try {
    const std::string reply =
        client.call(report_line(state.soils[request.tenant].name, request.run_id));
    report = service::decode_response(reply);
  } catch (const std::exception&) {
    request.error_code = "client_error";
  }
  request.done = Clock::now();
  if (text_field(report, "status") != "done") {
    if (request.error_code.empty()) request.error_code = "status_" + text_field(report, "status");
    return;
  }
  request.ok = true;
  request.req = number_field(report, "equivalent_resistance");
  request.current = number_field(report, "total_current");
  request.sigma_norm = number_field(report, "sigma_l2");
  request.server_total_s = number_field(report, "total_seconds");
  request.assembly_s = number_field(report, "assembly_seconds");
  request.solve_s = number_field(report, "solve_seconds");
  request.cache_hits = number_field(report, "cache_hits");
  request.cache_misses = number_field(report, "cache_misses");
  request.elements = number_field(report, "elements");
}

/// The open-loop sender: submits every request on schedule over connection
/// 0 and hands the accepted ones to the harvesters. A failed submit does
/// not stop the loop, so the harvesters always see the hand-off close.
void send_all(ServiceState& state, std::vector<Request>& requests, HandOff& handoff) {
  service::Client& client = *state.clients[0];
  std::vector<Clock::time_point> due;
  due.reserve(requests.size());
  for (const Request& request : requests) due.push_back(request.due);
  drive_open_loop(due, [&](std::size_t i) {
    if (submit(state, client, requests[i])) handoff.push(i);
  });
  handoff.close();
}

void harvest_all(ServiceState& state, service::Client& client, std::vector<Request>& requests,
                 HandOff& handoff) {
  while (const std::optional<std::size_t> index = handoff.pop()) {
    await_report(state, client, requests[*index]);
  }
}

/// The closed loop: every connection submits a request and waits for its
/// done report before sending the next, until kClosedRequests are done.
/// The tenant and kind of the closed loop's i-th request come from the
/// seeded streams after the ladder's `ladder_count` requests.
std::vector<Request> closed_loop(ServiceState& state, std::uint64_t seed, std::size_t ladder_count) {
  std::vector<Request> requests(kClosedRequests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].tenant = static_cast<std::size_t>(uniform(seed, ladder_count + i, 1) * kTenants);
    requests[i].factor = uniform(seed, ladder_count + i, 2) < kFactorShare;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (const std::unique_ptr<service::Client>& client : state.clients) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < requests.size(); i = next++) {
        requests[i].due = Clock::now();
        if (submit(state, *client, requests[i])) await_report(state, *client, requests[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return requests;
}

/// Spans of every request, the i-th with unit id `first_unit + i`.
void record_spans(Tracer& tracer, const std::vector<Request>& requests, std::size_t first_unit) {
  if (!tracer.enabled()) return;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const std::uint64_t unit = first_unit + i;
    const std::uint64_t root = tracer.record("request", r.due, r.done, unit, 0);
    tracer.record("client.send_lag", r.due, r.sent, unit, root);
    tracer.record("service.submit", r.sent, r.submitted, unit, root);
    if (!r.ok) continue;
    tracer.record("client.harvest_wait", r.submitted, r.harvest_start, unit, root);
    tracer.record("service.get_report", r.harvest_start, r.done, unit, root);
  }
}

struct Reference {
  double req = 0.0, current = 0.0, sigma_norm = 0.0;
};

/// The model the server builds for a submit line, analyzed on a fresh
/// 1-thread, cache-off engine.
Reference reference_run(engine::Engine& engine, const TenantSoil& soil, bool factor) {
  const std::size_t cells = cells_of(factor);
  geom::RectGridSpec spec;
  spec.length_x = kCellPitch * static_cast<double>(cells);
  spec.length_y = spec.length_x;
  spec.cells_x = cells;
  spec.cells_y = cells;
  const bem::BemModel model(geom::Mesh::build(geom::make_rect_grid(spec)),
                            soil::LayeredSoil::two_layer(soil.upper, soil.lower, soil.thickness));
  bem::AnalysisOptions options;
  options.gpr = kGpr;
  const bem::AnalysisResult result = engine.submit(model, options).take();
  return {result.equivalent_resistance, result.total_current, sigma_l2(result.sigma)};
}

}  // namespace

Outcome run_service_open(const Options& options, Tracer& tracer) {
  Outcome outcome;
  MetricSet& metrics = outcome.metrics;

  std::unique_ptr<ServiceState> state = timed_setup<ServiceState>(service_setup, metrics);

  // The ladder's steps and the closed loop (about one step long on the
  // seed commit) fill the window.
  const double step_seconds = options.seconds / static_cast<double>(kLadderRates.size() + 1);
  std::vector<Request> requests = make_schedule(options.seed, step_seconds);
  const double rss_before = current_rss_mb();
  const double cpu_start = process_cpu_seconds();
  const Clock::time_point ladder_start = Clock::now() + std::chrono::milliseconds(20);
  for (Request& request : requests) {
    request.due = ladder_start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(request.due_offset_s));
  }

  HandOff handoff;
  std::vector<std::thread> harvesters;
  for (std::size_t h = 0; h < kHarvesters; ++h) {
    harvesters.emplace_back(harvest_all, std::ref(*state), std::ref(*state->clients[1 + h]),
                            std::ref(requests), std::ref(handoff));
  }
  send_all(*state, requests, handoff);
  for (std::thread& harvester : harvesters) harvester.join();
  Clock::time_point last_done = ladder_start;
  for (const Request& request : requests) last_done = std::max(last_done, request.done);
  const double wall = seconds_between(ladder_start, last_done);
  const double cpu = process_cpu_seconds() - cpu_start;

  const Clock::time_point closed_start = Clock::now();
  std::vector<Request> closed = closed_loop(*state, options.seed, requests.size());
  Clock::time_point closed_end = closed_start;
  for (const Request& request : closed) closed_end = std::max(closed_end, request.done);
  record_spans(tracer, requests, 1);
  record_spans(tracer, closed, 1 + requests.size());

  // Per-step SLO bookkeeping; the breakdowns pool the whole ladder.
  std::vector<LadderStep> steps(kLadderRates.size());
  for (std::size_t s = 0; s < steps.size(); ++s) steps[s].rate = static_cast<double>(kLadderRates[s]);
  std::vector<double> done_ms, lag_ms, rtt_ms, server_ms, overhead_ms, assembly_ms, solve_ms;
  double hits = 0.0, misses = 0.0, assembly_total = 0.0, pairs_total = 0.0;
  std::size_t quota_rejections = 0, overload_rejections = 0;
  for (const Request& r : requests) {
    LadderStep& step = steps[r.step];
    ++step.attempted;
    const double step_end_s = step_seconds * static_cast<double>(r.step + 1);
    step.finish_after_end_s =
        std::max(step.finish_after_end_s, seconds_between(ladder_start, r.done) - step_end_s);
    lag_ms.push_back(1e3 * seconds_between(r.due, r.sent));
    rtt_ms.push_back(1e3 * seconds_between(r.sent, r.submitted));
    if (r.error_code == "quota_exceeded") ++quota_rejections;
    if (r.error_code == "overloaded") ++overload_rejections;
    if (!r.ok) {
      ++step.errors;
      continue;
    }
    const double latency_ms = 1e3 * seconds_between(r.due, r.done);
    step.latency_ms.push_back(latency_ms);
    hits += r.cache_hits;
    misses += r.cache_misses;
    assembly_total += r.assembly_s;
    pairs_total += element_pairs(r.elements);
    done_ms.push_back(latency_ms);
    server_ms.push_back(1e3 * r.server_total_s);
    overhead_ms.push_back(latency_ms - 1e3 * r.server_total_s);
    assembly_ms.push_back(1e3 * r.assembly_s);
    solve_ms.push_back(1e3 * r.solve_s);
  }

  std::vector<double> closed_ms;
  for (const Request& r : closed) {
    if (r.ok) closed_ms.push_back(1e3 * seconds_between(r.due, r.done));
  }
  outcome.attempted = requests.size() + closed.size();
  // Throughput is the closed loop's completion rate, the most the request
  // path sustains from four callers. Latency is the open loop's due -> done
  // latency at the reference rate, the ladder's lowest step: pooled over
  // the whole ladder it spread 23-45% between runs, as the higher steps
  // queue behind the 8x8 factor_solve runs.
  metrics.set("throughput_per_s",
              static_cast<double>(closed_ms.size()) / seconds_between(closed_start, closed_end),
              "1/s", closed_ms.size());
  metrics.set_percentile("latency_p50_ms", steps[0].latency_ms, 0.50, "ms");
  metrics.set_percentile("latency_p90_ms", steps[0].latency_ms, 0.90, "ms");
  metrics.set_percentile("latency_p99_ms", steps[0].latency_ms, 0.99, "ms");
  metrics.set_percentile("service.submit_rtt_ms.p50", rtt_ms, 0.50, "ms");
  metrics.set_percentile("service.submit_rtt_ms.p99", rtt_ms, 0.99, "ms");
  metrics.set_percentile("service.done_ms.p50", done_ms, 0.50, "ms");
  metrics.set_percentile("service.done_ms.p90", done_ms, 0.90, "ms");
  metrics.set_percentile("service.done_ms.p99", done_ms, 0.99, "ms");
  for (const LadderStep& step : steps) {
    const std::string rate = std::to_string(static_cast<std::size_t>(step.rate));
    metrics.set_percentile("service.p50_ms.r" + rate, step.latency_ms, 0.50, "ms");
    metrics.set_percentile("service.p99_ms.r" + rate, step.latency_ms, 0.99, "ms");
    metrics.set("service.error_rate.r" + rate,
                step.attempted > 0
                    ? static_cast<double>(step.errors) / static_cast<double>(step.attempted)
                    : 0.0,
                "ratio", step.attempted);
    metrics.set("service.finish_after_end_s.r" + rate, step.finish_after_end_s, "s");
  }
  metrics.set("service.max_rate_within_slo_per_s", max_rate_within_slo(steps), "1/s");
  metrics.set_percentile("service.server_run_ms.p50", server_ms, 0.50, "ms");
  metrics.set_percentile("service.server_run_ms.p99", server_ms, 0.99, "ms");
  metrics.set_percentile("service.wire_overhead_ms.p50", overhead_ms, 0.50, "ms");
  metrics.set_percentile("service.wire_overhead_ms.p99", overhead_ms, 0.99, "ms");
  metrics.set_percentile("service.generator_lag_ms.p99", lag_ms, 0.99, "ms");
  metrics.set("service.rejected.quota_exceeded", static_cast<double>(quota_rejections), "count");
  metrics.set("service.rejected.overloaded", static_cast<double>(overload_rejections), "count");
  metrics.set("bem.assembly_ms", median(assembly_ms), "ms", assembly_ms.size());
  metrics.set("la.solve_ms", median(solve_ms), "ms", solve_ms.size());
  metrics.set("bem.ns_per_pair_thread",
              pairs_total > 0.0 ? 1e9 * assembly_total * static_cast<double>(kThreads) / pairs_total
                                : 0.0,
              "ns");
  metrics.set("bem.cache_hit_rate", hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  metrics.set("bem.cache_misses_per_unit",
              misses / static_cast<double>(std::max<std::size_t>(requests.size(), 1)), "count");
  metrics.set("parallel.cpu_util", cpu / (wall * static_cast<double>(kThreads)), "ratio");

  const service::DispatcherStats stats = state->dispatcher->stats();
  metrics.set("service.admission_peak_outstanding",
              static_cast<double>(stats.admission.global_peak_outstanding), "count");
  metrics.set("service.runs_tracked_end", static_cast<double>(stats.runs_tracked), "count");
  metrics.set("service.rss_growth_mb", current_rss_mb() - rss_before, "MB");
  std::size_t engine_peak = 0;
  for (service::TenantSession* session : state->dispatcher->registry().sessions()) {
    engine_peak = std::max(engine_peak, session->engine().scheduler_stats().peak_outstanding);
  }
  metrics.set("engine.peak_outstanding", static_cast<double>(engine_peak), "count");
  // Spans are built from timestamps the loop takes anyway, so the overhead
  // reported is what recording them inline would have cost.
  set_tracing_metrics(metrics, tracer, seconds_between(ladder_start, closed_end));
  metrics.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Codec cost: the sent submit lines replayed through decode_request.
  {
    const std::size_t replays = std::min<std::size_t>(requests.size(), 20000);
    const Clock::time_point start = Clock::now();
    std::size_t decoded = 0;
    for (std::size_t i = 0; i < replays; ++i) {
      const Request& r = requests[i];
      const service::Request request =
          service::decode_request(state->submit_lines[2 * r.tenant + r.factor]);
      decoded += std::holds_alternative<service::SubmitRequest>(request) ? 1 : 0;
    }
    metrics.set("service.codec_decode_us",
                1e6 * seconds_between(start, Clock::now()) / static_cast<double>(replays), "us",
                decoded);
  }

  // Verification: every done response against a fresh 1-thread, cache-off
  // engine's analysis of the same model (factor_solve included).
  engine::ExecutionConfig reference_config;
  reference_config.num_threads = 1;
  reference_config.use_congruence_cache = false;
  engine::Engine reference_engine(reference_config);
  std::vector<Reference> references;
  for (const TenantSoil& soil : state->soils) {
    references.push_back(reference_run(reference_engine, soil, false));
    references.push_back(reference_run(reference_engine, soil, true));
  }
  std::size_t mismatches = 0;
  std::size_t errors = 0;
  for (const std::vector<Request>* loop : {&requests, &closed}) {
    for (const Request& r : *loop) {
      if (!r.ok) {
        ++errors;
        continue;
      }
      const Reference& ref = references[2 * r.tenant + r.factor];
      if (!(relative_deviation(r.req, ref.req) <= 1e-12 &&
            relative_deviation(r.current, ref.current) <= 1e-12 &&
            relative_deviation(r.sigma_norm, ref.sigma_norm) <= 1e-12)) {
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    outcome.errors.push_back(std::to_string(mismatches) +
                             " wire responses deviate from the 1-thread cache-off reference");
  }
  outcome.failed = errors + mismatches;
  return outcome;
}

}  // namespace e2e
