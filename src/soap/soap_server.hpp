// SOAP-over-HTTP server.
//
// Two modes mirror the paper's setups:
//  * a handler-driven service that parses each request envelope and returns
//    a response envelope (used by the examples and integration tests), and
//  * access to a raw drain endpoint lives in net/drain_server.hpp (the
//    paper's dummy server that reads and discards bytes without parsing).
//
// SoapHttpServer is a thin facade over server::ServerRuntime — the bounded
// worker pool with connection lifecycle management and response-side
// differential serialization (src/server/server_runtime.hpp). The runtime
// has one receive path: a full envelope parse, or the pinned replica's
// cached parse when a diff-wire client patches (differential
// deserialization, paper Section 6). Use the runtime directly for tuning
// (worker count, timeouts, backlog) and for the full ServerStats snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/error.hpp"
#include "soap/value.hpp"

namespace bsoap::server {
class ServerRuntime;
}  // namespace bsoap::server

namespace bsoap::soap {

/// Computes the response value for a parsed RPC request. Handlers run on
/// the runtime's worker pool: they must be safe to call concurrently.
using RpcHandler = std::function<Result<Value>(const RpcCall&)>;

class SoapHttpServer {
 public:
  /// Starts listening on an ephemeral loopback port.
  static Result<std::unique_ptr<SoapHttpServer>> start(RpcHandler handler);

  ~SoapHttpServer();

  std::uint16_t port() const;

  /// Requests served successfully so far.
  std::uint64_t requests_served() const;
  /// Requests that produced a SOAP fault (bad envelope or handler error).
  std::uint64_t faults_returned() const;

  /// The underlying runtime, for ServerStats and lifecycle detail.
  server::ServerRuntime& runtime() { return *runtime_; }
  const server::ServerRuntime& runtime() const { return *runtime_; }

  /// Graceful drain: in-flight requests finish, then all threads join.
  void stop();

 private:
  SoapHttpServer() = default;

  std::unique_ptr<server::ServerRuntime> runtime_;
};

/// Serializes a response envelope: <methodResponse><return>value</return>.
std::string serialize_rpc_response(const std::string& method,
                                   const std::string& service_namespace,
                                   const Value& result);

/// Serializes a SOAP 1.1 Fault envelope.
std::string serialize_rpc_fault(std::string_view fault_code,
                                std::string_view fault_string);

/// Extracts the <return> value from a parsed response call; checks that the
/// method name is `method` + "Response".
Result<Value> extract_rpc_result(const RpcCall& response,
                                 std::string_view method);

}  // namespace bsoap::soap
