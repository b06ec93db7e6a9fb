// ebem_e2e — the end-to-end benchmark's shared harness: command-line
// options, guarded percentiles, the metric set a run reports, the in-memory
// span tracer, and the four workload entry points.
//
// The benchmark binds only to the library's public entry points and times
// every call into a layer from the outside (README.md lists the bindings).
// Nothing here reaches into src/ internals, so a later change that keeps
// those entry points keeps this benchmark compiling and comparable.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds from `from` to `to`.
[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Worker threads of every engine, pool and post-processing step: the
/// benchmark host exposes 4 CPUs and the load stays on them.
inline constexpr std::size_t kThreads = 4;

/// Set-up (pool, engine or server, cases, one warm-up unit) runs this many
/// times per process; setup_s is the median.
inline constexpr std::size_t kSetupRepeats = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;    ///< the measured window; run.sh passes BENCHMARK.json's run_seconds
  bool trace = false;      ///< record spans and report per-layer metrics
  std::string trace_file;  ///< Chrome trace-event JSON written at exit ("" = none)
};

// ------------------------------------------------------------- statistics ---

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr double kMinSamplesBeyond = 10.0;

/// Whether `n` samples support the p-quantile (n * (1 - p) >= 10), so p99
/// needs 1000 samples and the median 20.
[[nodiscard]] bool percentile_supported(std::size_t n, double p);

/// Linearly interpolated order statistic of unsorted samples (the
/// "linear" / type-7 definition); `samples` must be non-empty.
[[nodiscard]] double quantile(std::vector<double> samples, double p);

/// quantile() guarded by percentile_supported(); nullopt when unsupported.
[[nodiscard]] std::optional<double> guarded_quantile(const std::vector<double>& samples,
                                                     double p);

[[nodiscard]] double median(const std::vector<double>& samples);

// ---------------------------------------------------------------- metrics ---

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind the value (0 = a single measurement)
};

/// Every number one run produced, by name. Names are unique; a later set()
/// overwrites.
class MetricSet {
 public:
  void set(const std::string& name, double value, std::string unit, std::size_t n = 0);
  /// Set `name` to the guarded p-quantile of `samples`; leave it unset when
  /// the samples cannot support it. Returns whether it was set.
  bool set_percentile(const std::string& name, const std::vector<double>& samples, double p,
                      const std::string& unit);
  [[nodiscard]] const Metric* find(std::string_view name) const;
  [[nodiscard]] const std::map<std::string, Metric, std::less<>>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric, std::less<>> metrics_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics of the contract line: end-to-end ones with tracing off,
/// per-layer ones with tracing on. BENCHMARK.json declares the same names
/// and units (run.sh --selftest checks that).
inline constexpr std::array<MetricSpec, 4> kEndToEndMetrics = {{
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
}};

/// The service_open rate ladder [requests/s], one equal-length step each;
/// the closed loop after it takes about one step on the seed commit. The
/// open loop saturates near 550/s on the 4-CPU host, so the ladder tops out at about
/// two thirds of that (no request is refused on the seed commit), and the
/// lowest step still yields the 1000 samples a p99 needs in a 4 s step.
inline constexpr std::array<std::size_t, 5> kLadderRates = {250, 280, 310, 340, 370};

/// Per-layer metric names and units (fixed part; the per-rate service
/// metrics are appended by per_layer_metrics()).
[[nodiscard]] std::vector<MetricSpec> per_layer_metrics();

// ---------------------------------------------------------------- tracing ---

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  std::uint64_t unit = 0;    ///< shared by every span of one unit of work
  std::uint32_t tid = 0;
};

/// Spans kept in memory while the benchmark runs; nothing is written until
/// write_chrome_trace(). A disabled tracer records nothing and costs one
/// branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Record a finished span; returns its id (0 when disabled).
  std::uint64_t record(const char* name, Clock::time_point start, Clock::time_point end,
                       std::uint64_t unit, std::uint64_t parent, std::uint64_t id = 0);

  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  [[nodiscard]] std::size_t size() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds), which
  /// Perfetto and chrome://tracing open offline. Returns false on IO error.
  bool write_chrome_trace(const std::string& path) const;
  void write_chrome_trace(std::ostream& out) const;

 private:
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: starts at construction, recorded at destruction (or at an
/// explicit end()).
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t unit, std::uint64_t parent = 0);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] Clock::time_point start() const { return start_; }
  /// When end() closed the span.
  [[nodiscard]] Clock::time_point stop() const { return stop_; }
  /// Close the span now; returns its duration in seconds.
  double end();

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t unit_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point start_;
  Clock::time_point stop_;
  bool open_ = true;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to it). Indexed like `spans`.
[[nodiscard]] std::vector<double> self_seconds(const std::vector<SpanRecord>& spans);

/// Share of the root spans' (unit spans') time that no child span covers.
[[nodiscard]] double unattributed_share(const std::vector<SpanRecord>& spans);

/// Set unattributed_share and tracing_overhead_pct (spans recorded times
/// the measured cost of recording one, over the window) from a tracing
/// run; a no-op when tracing is off.
void set_tracing_metrics(MetricSet& metrics, const Tracer& tracer, double window_seconds);

// -------------------------------------------------------------- workloads ---

/// What one workload run hands back to main(): counts for the contract
/// line, every metric it measured, and the verification verdict.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;          ///< failed, rejected or mis-verified units
  std::vector<std::string> errors;  ///< verification messages (empty = correct)
  MetricSet metrics;
};

/// Per-process resource gauges shared by every workload.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double current_rss_mb();
[[nodiscard]] double process_cpu_seconds();

/// Relative deviation |a - b| / max(|b|, tiny).
[[nodiscard]] double relative_deviation(double a, double b);

/// L2 norm of a leakage density — the wire's sigma_l2 parity probe.
[[nodiscard]] double sigma_l2(const std::vector<double>& sigma);

/// Element pairs one assembly integrates (the upper triangle with the
/// self pairs).
[[nodiscard]] inline double element_pairs(double elements) {
  return elements * (elements + 1.0) / 2.0;
}

/// Run `setup` kSetupRepeats times, tearing the previous state down before
/// timing the next, record the median as setup_s, and return the last
/// state for the measured loop.
template <typename State, typename Setup>
std::unique_ptr<State> timed_setup(Setup&& setup, MetricSet& metrics) {
  std::vector<double> seconds;
  std::unique_ptr<State> state;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const Clock::time_point start = Clock::now();
    state = setup();
    seconds.push_back(seconds_between(start, Clock::now()));
  }
  metrics.set("setup_s", median(seconds), "s", seconds.size());
  return state;
}

Outcome run_paper_cold(const Options& options, Tracer& tracer);
Outcome run_damage_warm(const Options& options, Tracer& tracer);
Outcome run_soil_cold(const Options& options, Tracer& tracer);
Outcome run_service_open(const Options& options, Tracer& tracer);

// ------------------------------------------------------------ service rule ---

/// One rung of the service rate ladder, as the SLO rule sees it.
struct LadderStep {
  double rate = 0.0;                ///< offered requests per second
  std::vector<double> latency_ms;   ///< due -> done, completed requests only
  std::size_t attempted = 0;
  std::size_t errors = 0;           ///< rejected or failed requests
  double finish_after_end_s = 0.0;  ///< last completion minus the step's end
};

/// Open-loop pacing: send(i) runs for each i in order, never before due[i]
/// and immediately when the loop is already late. Latency is taken from
/// due[i], so a stall inside one send() is charged to every later request
/// that was due during it.
void drive_open_loop(const std::vector<Clock::time_point>& due,
                     const std::function<void(std::size_t)>& send);

inline constexpr double kSloP99Ms = 25.0;
inline constexpr double kSloErrorShare = 0.001;
inline constexpr double kSloFinishSeconds = 1.0;

/// p99 of a step counting every error as a missed limit (infinite
/// latency); nullopt when the step has too few samples for a p99.
[[nodiscard]] std::optional<double> step_p99_ms(const LadderStep& step);

/// The three-part SLO: p99 <= 25 ms, error share <= 0.1%, and every request
/// done within 1 s of the step's end.
[[nodiscard]] bool step_meets_slo(const LadderStep& step);

/// Highest rate whose step meets the SLO; 0 when none does.
[[nodiscard]] double max_rate_within_slo(const std::vector<LadderStep>& steps);

// ---------------------------------------------------------------- output ---

/// The human-oriented detail line (every metric with unit and sample
/// count) and the contract line (the selected metric set only).
[[nodiscard]] std::string detail_line(const Options& options, const Outcome& outcome);
[[nodiscard]] std::string contract_line(const Outcome& outcome, bool trace);

/// Whether every metric the contract line needs is present.
[[nodiscard]] std::vector<std::string> missing_metrics(const Outcome& outcome, bool trace);

int run_selftest();

}  // namespace e2e
