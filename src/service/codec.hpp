// service::codec — the wire contract of the engine-as-a-service front door.
//
// The service speaks line-delimited JSON: one request object per line, one
// response object per line, over any byte transport (the in-process
// loopback in service/loopback.hpp or the POSIX socket server in
// service/server.hpp). This header is the whole protocol: a dependency-free
// JSON value with a strict parser/serializer, the typed request structs,
// strict schema validation that rejects malformed or out-of-range requests
// with a typed error payload *before* anything touches an engine
// (validate-then-act: nothing past this boundary ever sees an unvalidated
// field), the response builders, and the line-framing buffer both
// transports share.
//
// Every rejection is typed: an error response carries a stable ErrorCode
// string ("quota_exceeded", "overloaded", ...) a client can branch on —
// the 429-style codes are immediate, never queued.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/common/error.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::service {

// ------------------------------------------------------------ typed errors ---

/// Every way the service refuses a request, each with a stable wire name.
/// The first group is protocol/validation (the request itself is wrong);
/// the second is admission (the request is fine, the service refuses the
/// work right now — the immediate "429" family, never queued).
enum class ErrorCode {
  kMalformedRequest,  ///< not JSON, not an object, or no recognizable type
  kInvalidArgument,   ///< schema violation: wrong type, missing or out-of-range field
  kUnknownTenant,     ///< tenant name not registered
  kUnknownRun,        ///< run_id never issued (or already expired)
  kForbidden,         ///< run_id exists but belongs to another tenant
  kModelTooLarge,     ///< meshed element count exceeds the tenant's quota
  kQuotaExceeded,     ///< tenant at max outstanding runs (or zero-quota)
  kRateLimited,       ///< tenant exceeded max runs per time window
  kOverloaded,        ///< global outstanding bound reached — backpressure
  kShuttingDown,      ///< server draining; no new work accepted
  kInternal,          ///< a run or the service itself failed unexpectedly
};

/// Stable wire spelling ("malformed_request", "quota_exceeded", ...).
[[nodiscard]] const char* error_code_name(ErrorCode code);

/// The one exception type the service layers throw at the request boundary;
/// the dispatcher catches it and encodes the typed error response. Derives
/// from ebem::Error like everything the library throws.
class RequestError : public ebem::Error {
 public:
  RequestError(ErrorCode code, const std::string& message)
      : Error(message), code_(code) {}

  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

// ---------------------------------------------------------------- JSON value ---

/// Minimal JSON document: null / bool / number / string / array / object.
/// Strict by construction — parse() accepts exactly RFC 8259 text (no
/// comments, no trailing commas, no NaN/Infinity), serialization round-trips
/// doubles through %.17g. Objects are ordered maps so serialization is
/// deterministic. This is deliberately dependency-free: the codec is the
/// service's outermost trust boundary and owns every byte it accepts.
class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}  // NOLINT(google-explicit-constructor)
  Json(bool value) : value_(value) {}        // NOLINT(google-explicit-constructor)
  Json(double value) : value_(value) {}      // NOLINT(google-explicit-constructor)
  Json(int value) : value_(static_cast<double>(value)) {}  // NOLINT(google-explicit-constructor)
  Json(std::string value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Json(const char* value) : value_(std::string(value)) {}  // NOLINT(google-explicit-constructor)
  Json(Array value) : value_(std::move(value)) {}    // NOLINT(google-explicit-constructor)
  Json(Object value) : value_(std::move(value)) {}   // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(value_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(value_); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] double as_number() const { return std::get<double>(value_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
  [[nodiscard]] const Array& as_array() const { return std::get<Array>(value_); }
  [[nodiscard]] const Object& as_object() const { return std::get<Object>(value_); }
  [[nodiscard]] Object& as_object() { return std::get<Object>(value_); }

  /// Member lookup on an object; null when absent or when this is not an
  /// object (so schema code can chain lookups and validate once).
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Parse exactly one JSON document spanning the whole text (trailing
  /// whitespace allowed, trailing garbage rejected). On failure returns
  /// nullopt and, when `error` is non-null, a one-line explanation with the
  /// byte offset. Nesting beyond kMaxDepth is rejected.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text,
                                                 std::string* error = nullptr);

  /// Serialize to a single line (no raw newlines — strings escape control
  /// characters), parse(dump()) round-trips including number precision.
  [[nodiscard]] std::string dump() const;

  static constexpr std::size_t kMaxDepth = 32;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

// ------------------------------------------------------------- line framing ---

/// Splits an incoming byte stream into protocol lines. Both transports feed
/// raw reads through one of these: partial lines stay buffered until their
/// newline arrives (a truncated frame is simply never delivered), and a
/// line longer than `max_line_bytes` trips overflowed() so the connection
/// can answer with a framing error and close instead of buffering without
/// bound.
class LineBuffer {
 public:
  static constexpr std::size_t kDefaultMaxLineBytes = std::size_t{1} << 20;

  explicit LineBuffer(std::size_t max_line_bytes = kDefaultMaxLineBytes)
      : max_line_bytes_(max_line_bytes) {}

  void append(std::string_view bytes);

  /// Next complete line (terminator stripped, including a preceding '\r'),
  /// or nullopt when no full line is buffered yet.
  [[nodiscard]] std::optional<std::string> pop_line();

  /// The current (undelivered) line exceeded the bound; the stream is no
  /// longer trustworthy and the connection should be closed after an error.
  [[nodiscard]] bool overflowed() const { return overflowed_; }

  /// Bytes buffered but not yet delivered (a truncated trailing frame).
  [[nodiscard]] std::size_t pending_bytes() const { return buffer_.size(); }

 private:
  std::size_t max_line_bytes_;
  std::string buffer_;
  bool overflowed_ = false;
};

// ----------------------------------------------------------- request schema ---

/// The analysis model a request carries over the wire: a rectangular grid
/// spec plus a layered-soil stack. Decoded fields are range-checked by
/// decode_request (validate-then-act), so holders of a ModelSpec can trust
/// every field.
struct ModelSpec {
  geom::RectGridSpec grid;
  std::vector<soil::Layer> layers;  ///< last layer's thickness is infinite
};

/// submit_analysis / submit_factor_solve: run one model for this tenant.
/// factor_solve runs assemble+factor through Engine::submit_factor and
/// answers the unit-GPR right-hand side by substitution on completion — same
/// numbers as the analysis path, exercising the FactoredSystem surface.
struct SubmitRequest {
  std::string tenant;
  ModelSpec model;
  bool factor_solve = false;
};

/// get_report: poll (wait_ms == 0) or wait up to wait_ms for a run's
/// terminal report. Billing is server-side and happens whether or not
/// anyone ever asks.
struct ReportRequest {
  std::string tenant;
  std::uint64_t run_id = 0;
  std::uint32_t wait_ms = 0;

  static constexpr std::uint32_t kMaxWaitMs = 60'000;
};

/// stats: the server-wide admission/throughput picture, or one tenant's
/// cumulative bill when `tenant` is present.
struct StatsRequest {
  std::optional<std::string> tenant;
};

/// shutdown: stop admitting, wait until every admitted run is billed.
/// Stats and reports stay answerable afterwards.
struct ShutdownRequest {};

using Request = std::variant<SubmitRequest, ReportRequest, StatsRequest, ShutdownRequest>;

/// Decode and strictly validate one request line. Throws RequestError
/// (kMalformedRequest for non-JSON / missing type, kInvalidArgument for any
/// schema violation: unknown field types, non-finite numbers, out-of-range
/// geometry or soil values). Nothing downstream re-validates.
[[nodiscard]] Request decode_request(std::string_view line);

/// Bounds decode_request enforces on ModelSpec — public so tests and docs
/// agree with the implementation.
struct ModelLimits {
  static constexpr double kMaxExtentMeters = 10'000.0;
  static constexpr std::size_t kMaxCellsPerSide = 4096;
  static constexpr double kMaxDepthMeters = 100.0;
  static constexpr double kMaxRadiusMeters = 1.0;
  static constexpr std::size_t kMaxSoilLayers = 8;
};

// --------------------------------------------------------- response builders ---

/// {"type":"error","code":<stable name>,"message":...}
[[nodiscard]] std::string error_response(ErrorCode code, std::string_view message);

/// {"type":"submitted","run_id":...,"tenant":...,"elements":...}
[[nodiscard]] std::string submitted_response(std::uint64_t run_id, std::string_view tenant,
                                             std::size_t elements);

/// One terminal (or in-flight) run report; the payload of get_report.
struct RunReport {
  std::uint64_t run_id = 0;
  std::string status;  ///< "queued" | "running" | "done" | "failed"
  bool factor_solve = false;
  std::string error;  ///< failed runs: the run's exception message
  // "done" payload — the safety quantities plus this run's bill lines.
  double equivalent_resistance = 0.0;
  double total_current = 0.0;
  double sigma_l2 = 0.0;  ///< L2 norm of the leakage density, a parity probe
  std::size_t elements = 0;
  double assembly_seconds = 0.0;
  double solve_seconds = 0.0;
  double total_seconds = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
};

[[nodiscard]] std::string report_response(const RunReport& report);

/// Decode helper for clients (the bench's parity check, tests): parse a
/// response line back into a Json document, throwing RequestError on
/// malformed responses.
[[nodiscard]] Json decode_response(std::string_view line);

}  // namespace ebem::service
