// service::LoopbackClient — the in-process transport.
//
// Drives a Dispatcher through the exact byte path the socket server uses —
// LineBuffer framing in, one response line out — with no file descriptors
// involved. This is what unit tests and the service bench run against: the
// whole service core (codec, admission, tenants, completion, billing) under
// test, deterministically, with the transport reduced to a function call.
// Any number of LoopbackClients may share one Dispatcher from concurrent
// threads — that *is* the many-connections test.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/service/codec.hpp"
#include "src/service/dispatcher.hpp"

namespace ebem::service {

class LoopbackClient {
 public:
  /// The dispatcher is borrowed and must outlive the client.
  explicit LoopbackClient(Dispatcher& dispatcher,
                          std::size_t max_line_bytes = LineBuffer::kDefaultMaxLineBytes)
      : dispatcher_(&dispatcher), buffer_(max_line_bytes) {}

  /// Send one request line (newline appended here, like a socket client
  /// would) and return the response line. Framing errors — an embedded
  /// newline splitting the request, an oversized line — surface exactly as
  /// the socket path reports them: a malformed_request error response.
  [[nodiscard]] std::string call(std::string_view request);

  /// Feed raw bytes (possibly partial or multiple frames) and collect a
  /// response per completed line — the socket server's read loop, verbatim.
  /// Returns the responses in order; nullopt entries never occur (every
  /// frame gets an answer, even garbage).
  [[nodiscard]] std::vector<std::string> feed(std::string_view bytes);

 private:
  Dispatcher* dispatcher_;
  LineBuffer buffer_;
};

}  // namespace ebem::service
