// ebem_e2e --selftest: checks of the harness itself — the percentile
// guard, due-time accounting under a stall, the rate-ladder SLO rule and
// the output schema. Runs in well under a second and needs no engine.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/e2e.hpp"
#include "src/service/codec.hpp"

namespace e2e {

namespace {

namespace service = ebem::service;

int failures = 0;

void check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> constant_samples(std::size_t n, double value) {
  return std::vector<double>(n, value);
}

void percentile_guard() {
  check(!percentile_supported(999, 0.99), "p99 must be refused below 1000 samples");
  check(percentile_supported(1000, 0.99), "p99 must be accepted at 1000 samples");
  check(!percentile_supported(19, 0.50) && percentile_supported(20, 0.50),
        "the median needs 20 samples");
  check(!percentile_supported(99, 0.90) && percentile_supported(100, 0.90),
        "p90 needs 100 samples");
  check(!guarded_quantile(constant_samples(999, 1.0), 0.99).has_value(),
        "guarded p99 of 999 samples must be empty");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  const std::optional<double> p99 = guarded_quantile(ramp, 0.99);
  check(p99.has_value() && std::abs(*p99 - 990.01) < 1e-9, "p99 of 1..1000 is 990.01");
  MetricSet metrics;
  check(!metrics.set_percentile("x", constant_samples(50, 1.0), 0.99, "ms"),
        "set_percentile must report an unsupported percentile");
  check(metrics.find("x") == nullptr, "an unsupported percentile is left unset");
}

void due_time_accounting() {
  // 100 requests due 1 ms apart; request 20's send stalls 50 ms. Every
  // request due during the stall must carry the rest of it.
  constexpr std::size_t kRequests = 100;
  constexpr std::size_t kStalled = 20;
  const auto stall = std::chrono::milliseconds(50);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> due;
  for (std::size_t i = 0; i < kRequests; ++i) due.push_back(start + std::chrono::milliseconds(i));
  std::vector<Clock::time_point> sent(kRequests);
  std::vector<Clock::time_point> done(kRequests);
  drive_open_loop(due, [&](std::size_t i) {
    sent[i] = Clock::now();
    if (i == kStalled) std::this_thread::sleep_for(stall);
    done[i] = Clock::now();
  });
  const Clock::time_point stall_end = done[kStalled];
  bool late_carry = true;
  bool early_clean = true;
  double late_sum_ms = 0.0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const double latency_ms = 1e3 * seconds_between(due[i], done[i]);
    check(!(done[i] < due[i]), "no request may complete before it is due");
    if (i > kStalled && due[i] < stall_end) {
      late_carry = late_carry && latency_ms >= 1e3 * seconds_between(due[i], stall_end) - 0.01;
      late_sum_ms += latency_ms;
    }
    // Requests before the stall only pay the sleep's wake-up slack.
    if (i < kStalled) early_clean = early_clean && latency_ms < 20.0;
  }
  check(late_carry, "requests due during the stall must carry the remaining stall");
  check(early_clean, "requests due before the stall must not carry it");
  check(late_sum_ms > 40 * 10.0, "the stall must show in the late requests' latencies");
  check(1e3 * seconds_between(sent[kStalled + 1], done[kStalled + 1]) < 20.0,
        "timing from the send instead would have hidden the stall");
}

LadderStep step(double rate, std::size_t ok, double ms, std::size_t slow = 0, double slow_ms = 0,
                std::size_t errors = 0, double finish = 0.1) {
  LadderStep s;
  s.rate = rate;
  s.latency_ms.assign(ok, ms);
  s.latency_ms.insert(s.latency_ms.end(), slow, slow_ms);
  s.attempted = ok + slow + errors;
  s.errors = errors;
  s.finish_after_end_s = finish;
  return s;
}

void ladder_rule() {
  check(step_meets_slo(step(1000, 2000, 5.0)), "a fast, clean step passes");
  check(step_meets_slo(step(1000, 1985, 5.0, 15, 30.0)), "0.75% slow requests keep p99 fast");
  check(!step_meets_slo(step(1000, 1970, 5.0, 30, 30.0)), "p99 above 25 ms fails");
  check(!step_meets_slo(step(1000, 2000, 5.0, 0, 0.0, 3)), "0.15% errors fail");
  check(step_meets_slo(step(1000, 2000, 5.0, 0, 0.0, 2)), "0.1% errors pass");
  check(!step_meets_slo(step(1000, 2000, 5.0, 0, 0.0, 0, 1.5)),
        "finishing 1.5 s after the step's end fails");
  check(!step_meets_slo(step(250, 500, 1.0)), "a step too small for a p99 fails");
  check(!step_meets_slo(step(1000, 980, 1.0, 0, 0.0, 20)) &&
            std::isinf(step_p99_ms(step(1000, 980, 1.0, 0, 0.0, 20)).value_or(0.0)),
        "errors count as missed limits in the p99");
  const std::vector<LadderStep> ladder = {step(250, 1000, 2.0), step(500, 2000, 3.0),
                                          step(1000, 4000, 30.0), step(2000, 8000, 4.0)};
  check(max_rate_within_slo(ladder) == 2000.0, "the highest passing rate is reported");
  check(max_rate_within_slo({step(1000, 4000, 30.0)}) == 0.0, "no passing step reports 0");
}

bool valid_name(const std::string& name, std::size_t max_length, const std::string& extra) {
  if (name.empty() || name.size() > max_length) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && extra.find(c) == std::string::npos) {
      return false;
    }
  }
  return true;
}

void output_schema() {
  Outcome outcome;
  outcome.attempted = 12;
  outcome.failed = 0;
  for (const MetricSpec& spec : kEndToEndMetrics) outcome.metrics.set(spec.name, 1.25, spec.unit);
  for (const MetricSpec& spec : per_layer_metrics()) outcome.metrics.set(spec.name, 0.5, spec.unit);

  std::set<std::string> names;
  for (const bool trace : {false, true}) {
    const std::string line = contract_line(outcome, trace);
    const std::optional<service::Json> json = service::Json::parse(line);
    check(json.has_value() && json->is_object(), "the contract line is one JSON object");
    if (!json || !json->is_object()) continue;
    const service::Json::Object& object = json->as_object();
    check(object.size() == 4 && object.count("correct") && object.count("attempted") &&
              object.count("failed") && object.count("metrics"),
          "the contract line has exactly correct/attempted/failed/metrics");
    check(json->find("correct")->is_bool() && json->find("correct")->as_bool(),
          "correct is a boolean");
    check(json->find("attempted")->as_number() == 12.0 && json->find("failed")->as_number() == 0,
          "attempted and failed are whole numbers");
    const std::size_t expected = trace ? per_layer_metrics().size() : kEndToEndMetrics.size();
    const service::Json::Object& metrics = json->find("metrics")->as_object();
    check(metrics.size() == expected, "the contract line carries exactly the selected metrics");
    for (const auto& [name, metric] : metrics) {
      check(metric.is_object() && metric.as_object().size() == 2 &&
                metric.find("value") != nullptr && metric.find("value")->is_number() &&
                metric.find("unit") != nullptr && metric.find("unit")->is_string(),
            "each metric is exactly {value: number, unit: string}");
      check(valid_name(name, 64, "_.-") && std::isalnum(static_cast<unsigned char>(name[0])),
            "metric names use letters, digits, _ . - and start alphanumeric");
      check(valid_name(metric.find("unit")->as_string(), 16, "_/%.-"), "units are valid");
      check(names.insert(name).second, "each metric name is used once");
    }
  }
  Outcome failing = outcome;
  failing.failed = 1;
  const std::optional<service::Json> failed = service::Json::parse(contract_line(failing, false));
  check(failed && !failed->find("correct")->as_bool(), "a failed unit makes correct false");

  Outcome partial;
  partial.metrics.set("setup_s", 1.0, "s");
  check(missing_metrics(partial, false).size() == kEndToEndMetrics.size() - 1,
        "missing end-to-end metrics are detected");
  Options options;
  options.workload = "paper_cold";
  check(service::Json::parse(detail_line(options, outcome)).has_value(),
        "the detail line is valid JSON");
}

void tracing() {
  Tracer tracer(true);
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const std::uint64_t root = tracer.record("unit", at(0), at(100), 1, 0);
  tracer.record("a.child", at(10), at(40), 1, root);
  tracer.record("b.child", at(30), at(60), 1, root);  // overlaps a.child
  const std::uint64_t nested = tracer.record("c.child", at(70), at(90), 1, root);
  tracer.record("c.grandchild", at(75), at(85), 1, nested);
  const std::vector<SpanRecord> spans = tracer.snapshot();
  const std::vector<double> self = self_seconds(spans);
  // Children cover [10, 60) and [70, 90): 70 of the root's 100 ms.
  check(std::abs(self[0] - 0.030) < 1e-9, "root self time is its uncovered 30 ms");
  check(std::abs(self[3] - 0.010) < 1e-9, "a parent's self time excludes its children");
  check(std::abs(unattributed_share(spans) - 0.3) < 1e-9, "unattributed share is 30%");
  Tracer off(false);
  {
    Span span(off, "unit", 1);
  }
  check(off.size() == 0, "a disabled tracer records nothing");

  // Unit 2 overlaps unit 1 and must get its own track; unit 3 starts after
  // both and reuses the first.
  tracer.record("unit", at(50), at(150), 2, 0);
  tracer.record("unit", at(200), at(210), 3, 0);
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  const std::optional<service::Json> trace = service::Json::parse(out.str());
  check(trace.has_value() && trace->find("traceEvents") != nullptr,
        "the Chrome trace is one JSON object with traceEvents");
  if (!trace || trace->find("traceEvents") == nullptr) return;
  std::map<double, double> track_of_unit;
  for (const service::Json& event : trace->find("traceEvents")->as_array()) {
    check(event.find("ph")->as_string() == "X" && event.find("dur")->as_number() >= 0.0,
          "trace events are complete events with a duration");
    track_of_unit[event.find("args")->find("unit")->as_number()] = event.find("tid")->as_number();
  }
  check(track_of_unit[1] != track_of_unit[2], "overlapping units land on different tracks");
  check(track_of_unit[3] == track_of_unit[1], "a later unit reuses a free track");
}

}  // namespace

int run_selftest() {
  percentile_guard();
  due_time_accounting();
  ladder_rule();
  output_schema();
  tracing();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace e2e
