#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include <unistd.h>

#include "bench/e2e/e2e.hpp"
#include "src/common/resource_usage.hpp"
#include "src/common/timer.hpp"

namespace e2e {

// ------------------------------------------------------------- statistics ---

bool percentile_supported(std::size_t n, double p) {
  // The epsilon keeps n = 1000, p = 0.99 on the supported side despite
  // 1 - 0.99 not being exact in binary.
  return static_cast<double>(n) * (1.0 - p) >= kMinSamplesBeyond - 1e-9;
}

double quantile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double position = p * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  if (fraction == 0.0) return samples[lower];
  return samples[lower] + fraction * (samples[upper] - samples[lower]);
}

std::optional<double> guarded_quantile(const std::vector<double>& samples, double p) {
  if (samples.empty() || !percentile_supported(samples.size(), p)) return std::nullopt;
  return quantile(samples, p);
}

double median(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : quantile(samples, 0.5);
}

// ---------------------------------------------------------------- metrics ---

void MetricSet::set(const std::string& name, double value, std::string unit, std::size_t n) {
  metrics_[name] = Metric{value, std::move(unit), n};
}

bool MetricSet::set_percentile(const std::string& name, const std::vector<double>& samples,
                               double p, const std::string& unit) {
  const std::optional<double> value = guarded_quantile(samples, p);
  if (value) set(name, *value, unit, samples.size());
  return value.has_value();
}

const Metric* MetricSet::find(std::string_view name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

std::vector<MetricSpec> per_layer_metrics() {
  std::vector<MetricSpec> specs = {
      {"bem.assembly_ms", "ms"},
      {"bem.ns_per_pair_thread", "ns"},
      {"bem.cache_hit_rate", "ratio"},
      {"bem.cache_misses_per_unit", "count"},
      {"engine.cache_drops_per_scenario", "count"},
      {"engine.gate_wait_ms_per_scenario", "ms"},
      {"la.solve_ms", "ms"},
      {"post.safety_ms", "ms"},
      {"geom.mesh_ms", "ms"},
      {"engine.submit_us", "us"},
      {"engine.residual_ms", "ms"},
      {"parallel.cpu_util", "ratio"},
      {"campaign.pipeline_overlap", "ratio"},
      {"campaign.peak_in_flight", "count"},
      {"engine.peak_outstanding", "count"},
      {"latency_p90_ms", "ms"},
      {"latency_p99_ms", "ms"},
  };
  // Names must outlive the returned specs: keep them in function statics.
  static const std::vector<std::string> rate_names = [] {
    std::vector<std::string> names;
    for (const char* family : {"service.p50_ms.r", "service.p99_ms.r", "service.error_rate.r"}) {
      for (const std::size_t rate : kLadderRates) names.push_back(family + std::to_string(rate));
    }
    return names;
  }();
  for (std::size_t i = 0; i < rate_names.size(); ++i) {
    specs.push_back({rate_names[i].c_str(), i < 2 * kLadderRates.size() ? "ms" : "ratio"});
  }
  const std::vector<MetricSpec> tail = {
      {"service.max_rate_within_slo_per_s", "1/s"},
      {"service.done_ms.p50", "ms"},
      {"service.done_ms.p90", "ms"},
      {"service.done_ms.p99", "ms"},
      {"service.submit_rtt_ms.p50", "ms"},
      {"service.submit_rtt_ms.p99", "ms"},
      {"service.server_run_ms.p50", "ms"},
      {"service.server_run_ms.p99", "ms"},
      {"service.wire_overhead_ms.p50", "ms"},
      {"service.wire_overhead_ms.p99", "ms"},
      {"service.codec_decode_us", "us"},
      {"service.generator_lag_ms.p99", "ms"},
      {"service.rejected.quota_exceeded", "count"},
      {"service.rejected.overloaded", "count"},
      {"service.admission_peak_outstanding", "count"},
      {"service.runs_tracked_end", "count"},
      {"service.rss_growth_mb", "MB"},
      {"unattributed_share", "ratio"},
      {"tracing_overhead_pct", "%"},
  };
  specs.insert(specs.end(), tail.begin(), tail.end());
  return specs;
}

// ---------------------------------------------------------------- tracing ---

namespace {

std::uint32_t this_thread_tag() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tag = ++next;
  return tag;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
}

std::uint64_t Tracer::record(const char* name, Clock::time_point start, Clock::time_point end,
                             std::uint64_t unit, std::uint64_t parent, std::uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = next_id();
  SpanRecord span{name, to_ns(start), to_ns(end), id, parent, unit, this_thread_tag()};
  const std::scoped_lock lock(mutex_);
  spans_.push_back(span);
  return id;
}

std::vector<SpanRecord> Tracer::snapshot() const {
  const std::scoped_lock lock(mutex_);
  return spans_;
}

std::size_t Tracer::size() const {
  const std::scoped_lock lock(mutex_);
  return spans_.size();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  std::vector<SpanRecord> spans = snapshot();
  std::sort(spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.end_ns > b.end_ns;
  });
  // Units overlap in the open loop, and slices on one track must nest, so
  // every unit gets a lane no concurrent unit uses; the recording thread
  // goes into args.
  std::map<std::uint64_t, std::size_t> lane_of_unit;
  std::vector<std::int64_t> lane_free_at;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 || lane_of_unit.count(s.unit) != 0) continue;
    std::size_t lane = 0;
    while (lane < lane_free_at.size() && lane_free_at[lane] > s.start_ns) ++lane;
    if (lane == lane_free_at.size()) lane_free_at.push_back(0);
    lane_free_at[lane] = s.end_ns;
    lane_of_unit[s.unit] = lane;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buffer[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string_view name = s.name;
    const std::string category(name.substr(0, name.find('.')));
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"unit\":%llu,"
                  "\"thread\":%u}}",
                  i == 0 ? "" : ",", s.name, category.c_str(), lane_of_unit[s.unit] + 1,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.unit), s.tid);
    out << buffer;
  }
  out << "\n]}\n";
}

Span::Span(Tracer& tracer, const char* name, std::uint64_t unit, std::uint64_t parent)
    : tracer_(tracer),
      name_(name),
      unit_(unit),
      parent_(parent),
      id_(tracer.enabled() ? tracer.next_id() : 0),
      start_(Clock::now()) {}

double Span::end() {
  if (!open_) return 0.0;
  open_ = false;
  stop_ = Clock::now();
  tracer_.record(name_, start_, stop_, unit_, parent_, id_);
  return seconds_between(start_, stop_);
}

namespace {

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals, std::int64_t lo,
                  std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  std::int64_t reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += static_cast<double>(end - start);
      reach = end;
    }
  }
  return covered;
}

std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> child_intervals(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  return children;
}

}  // namespace

std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  const auto children = child_intervals(spans);
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    double covered = 0.0;
    if (const auto it = children.find(s.id); it != children.end()) {
      covered = covered_ns(it->second, s.start_ns, s.end_ns);
    }
    self[i] = (static_cast<double>(s.end_ns - s.start_ns) - covered) / 1e9;
  }
  return self;
}

double unattributed_share(const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_seconds(spans);
  double total = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) continue;
    total += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
    uncovered += self[i];
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

namespace {

/// Measured cost of recording one span [s].
double span_record_cost_seconds() {
  constexpr std::size_t kSpans = 20000;
  Tracer scratch(true);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kSpans; ++i) {
    Span span(scratch, "calibration", i);
  }
  return seconds_between(start, Clock::now()) / static_cast<double>(kSpans);
}

}  // namespace

void set_tracing_metrics(MetricSet& metrics, const Tracer& tracer, double window_seconds) {
  if (!tracer.enabled()) return;
  const std::vector<SpanRecord> spans = tracer.snapshot();
  metrics.set("unattributed_share", unattributed_share(spans), "ratio", spans.size());
  metrics.set("tracing_overhead_pct",
              100.0 * static_cast<double>(spans.size()) * span_record_cost_seconds() /
                  std::max(window_seconds, 1e-9),
              "%", spans.size());
}

// --------------------------------------------------------------- gauges ---

double peak_rss_mb() { return static_cast<double>(ebem::peak_rss_bytes()) / (1024.0 * 1024.0); }

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double process_cpu_seconds() {
  static const ebem::CpuTimer timer;  // readings are only ever differenced
  return timer.seconds();
}

double relative_deviation(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), std::numeric_limits<double>::min());
}

double sigma_l2(const std::vector<double>& sigma) {
  double sum = 0.0;
  for (const double s : sigma) sum += s * s;
  return std::sqrt(sum);
}

// ------------------------------------------------------------ service rule ---

void drive_open_loop(const std::vector<Clock::time_point>& due,
                     const std::function<void(std::size_t)>& send) {
  for (std::size_t i = 0; i < due.size(); ++i) {
    std::this_thread::sleep_until(due[i]);
    send(i);
  }
}

std::optional<double> step_p99_ms(const LadderStep& step) {
  std::vector<double> samples = step.latency_ms;
  samples.insert(samples.end(), step.errors, std::numeric_limits<double>::infinity());
  if (!percentile_supported(samples.size(), 0.99)) return std::nullopt;
  // An infinite sample would poison the interpolation; the nearest-rank
  // value above the interpolated position is the conservative choice.
  std::sort(samples.begin(), samples.end());
  const double position = 0.99 * static_cast<double>(samples.size() - 1);
  const auto upper = static_cast<std::size_t>(std::ceil(position));
  if (std::isinf(samples[upper])) return samples[upper];
  return quantile(std::move(samples), 0.99);
}

bool step_meets_slo(const LadderStep& step) {
  const std::optional<double> p99 = step_p99_ms(step);
  if (!p99 || *p99 > kSloP99Ms) return false;
  if (step.attempted == 0 ||
      static_cast<double>(step.errors) > kSloErrorShare * static_cast<double>(step.attempted)) {
    return false;
  }
  return step.finish_after_end_s <= kSloFinishSeconds;
}

double max_rate_within_slo(const std::vector<LadderStep>& steps) {
  double best = 0.0;
  for (const LadderStep& step : steps) {
    if (step_meets_slo(step)) best = std::max(best, step.rate);
  }
  return best;
}

// ---------------------------------------------------------------- output ---

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string metric_json(const std::string& name, const Metric& metric, bool with_n) {
  std::string out = "\"" + name + "\":{\"value\":" + number(metric.value) + ",\"unit\":\"" +
                    metric.unit + "\"";
  if (with_n) out += ",\"n\":" + std::to_string(metric.n);
  return out + "}";
}

std::vector<std::string> contract_names(bool trace) {
  std::vector<std::string> names;
  if (trace) {
    for (const MetricSpec& spec : per_layer_metrics()) names.emplace_back(spec.name);
  } else {
    for (const MetricSpec& spec : kEndToEndMetrics) names.emplace_back(spec.name);
  }
  return names;
}

}  // namespace

std::string detail_line(const Options& options, const Outcome& outcome) {
  std::string out = "{\"bench\":\"ebem_e2e\",\"workload\":\"" + options.workload +
                    "\",\"seed\":" + std::to_string(options.seed) +
                    ",\"seconds\":" + number(options.seconds) +
                    ",\"trace\":" + (options.trace ? "1" : "0") +
                    ",\"threads\":" + std::to_string(kThreads) +
                    ",\"hw_concurrency\":" + std::to_string(std::thread::hardware_concurrency()) +
                    ",\"attempted\":" + std::to_string(outcome.attempted) +
                    ",\"failed\":" + std::to_string(outcome.failed) + ",\"errors\":[";
  for (std::size_t i = 0; i < outcome.errors.size(); ++i) {
    std::string escaped;
    for (const char c : outcome.errors[i]) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c == '\n' ? ' ' : c;
    }
    out += i == 0 ? "\"" : ",\"";
    out += escaped + "\"";
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics.all()) {
    if (!first) out += ',';
    out += metric_json(name, metric, true);
    first = false;
  }
  return out + "}}";
}

std::string contract_line(const Outcome& outcome, bool trace) {
  const bool correct = outcome.errors.empty() && outcome.failed == 0;
  std::string out = std::string("{\"correct\":") + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(outcome.attempted) +
                    ",\"failed\":" + std::to_string(outcome.failed) + ",\"metrics\":{";
  bool first = true;
  for (const std::string& name : contract_names(trace)) {
    const Metric* metric = outcome.metrics.find(name);
    if (metric == nullptr) continue;
    if (!first) out += ',';
    out += metric_json(name, *metric, false);
    first = false;
  }
  return out + "}}";
}

std::vector<std::string> missing_metrics(const Outcome& outcome, bool trace) {
  std::vector<std::string> missing;
  for (const std::string& name : contract_names(trace)) {
    if (outcome.metrics.find(name) == nullptr) missing.push_back(name);
  }
  return missing;
}

}  // namespace e2e
