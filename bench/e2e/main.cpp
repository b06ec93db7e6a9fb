// ebem_e2e — one end-to-end benchmark over the library and the service.
//
//   ebem_e2e --workload NAME --seconds T [--seed S] [--trace 0|1|FILE]
//   ebem_e2e --selftest
//   ebem_e2e --list-metrics
//
// Workloads: paper_cold, damage_warm, soil_cold, service_open (README.md
// says why each exists). Prints a detail line (every metric with unit and
// sample count), then the contract line — {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics, or with the per-layer
// metrics when tracing. `--trace FILE` also writes the spans as Chrome
// trace-event JSON. Exit code 0 only when the run verified.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "bench/e2e/e2e.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ebem_e2e --workload paper_cold|damage_warm|soil_cold|service_open\n"
               "                --seconds T [--seed S] [--trace 0|1|FILE]\n"
               "       ebem_e2e --selftest | --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") return e2e::run_selftest();
    if (arg == "--list-metrics") {
      for (const e2e::MetricSpec& spec : e2e::kEndToEndMetrics) {
        std::printf("end_to_end %s %s\n", spec.name, spec.unit);
      }
      for (const e2e::MetricSpec& spec : e2e::per_layer_metrics()) {
        std::printf("per_layer %s %s\n", spec.name, spec.unit);
      }
      return 0;
    }
    if (!has_value) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value != "0";
      if (value != "0" && value != "1") options.trace_file = value;
    } else {
      return usage();
    }
  }
  if (!(options.seconds > 0.0)) return usage();

  e2e::Outcome (*workload)(const e2e::Options&, e2e::Tracer&) = nullptr;
  if (options.workload == "paper_cold") workload = e2e::run_paper_cold;
  if (options.workload == "damage_warm") workload = e2e::run_damage_warm;
  if (options.workload == "soil_cold") workload = e2e::run_soil_cold;
  if (options.workload == "service_open") workload = e2e::run_service_open;
  if (workload == nullptr) return usage();

  e2e::Tracer tracer(options.trace);
  e2e::Outcome outcome;
  try {
    outcome = workload(options, tracer);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ebem_e2e: %s failed: %s\n", options.workload.c_str(), error.what());
    return 1;
  }
  if (options.trace) {
    // Per-layer metrics that do not apply to this workload, or whose
    // percentile the samples cannot support, read 0.
    for (const e2e::MetricSpec& spec : e2e::per_layer_metrics()) {
      if (outcome.metrics.find(spec.name) == nullptr) outcome.metrics.set(spec.name, 0.0, spec.unit);
    }
  }
  if (!options.trace_file.empty() && !tracer.write_chrome_trace(options.trace_file)) {
    outcome.errors.push_back("cannot write trace file " + options.trace_file);
  }

  std::printf("%s\n", e2e::detail_line(options, outcome).c_str());
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "ebem_e2e: %s: %s\n", options.workload.c_str(), error.c_str());
  }
  for (const std::string& name : e2e::missing_metrics(outcome, options.trace)) {
    std::fprintf(stderr, "ebem_e2e: %s: metric %s could not be measured\n",
                 options.workload.c_str(), name.c_str());
    return 1;
  }
  std::printf("%s\n", e2e::contract_line(outcome, options.trace).c_str());
  return outcome.errors.empty() && outcome.failed == 0 ? 0 : 1;
}
