// soap::SoapHttpServer, implemented as a facade over server::ServerRuntime.
//
// The original SoapHttpServer spawned one unbounded thread per connection
// and only reaped them at stop(); the runtime replaces that with the fixed
// worker pool, so the facade is just option translation plus counter
// mapping. It lives in bsoap_server (not bsoap_soap) because the runtime
// sits above bsoap_core in the layering.
#include "server/server_runtime.hpp"
#include "soap/soap_server.hpp"

namespace bsoap::soap {

Result<std::unique_ptr<SoapHttpServer>> SoapHttpServer::start(
    RpcHandler handler) {
  Result<std::unique_ptr<server::ServerRuntime>> runtime =
      server::ServerRuntime::start(std::move(handler));
  if (!runtime.ok()) return runtime.error();
  auto server = std::unique_ptr<SoapHttpServer>(new SoapHttpServer());
  server->runtime_ = std::move(runtime.value());
  return server;
}

SoapHttpServer::~SoapHttpServer() { stop(); }

std::uint16_t SoapHttpServer::port() const { return runtime_->port(); }

std::uint64_t SoapHttpServer::requests_served() const {
  return runtime_->stats().requests;
}

std::uint64_t SoapHttpServer::faults_returned() const {
  return runtime_->stats().faults;
}

void SoapHttpServer::stop() { runtime_->stop(); }

}  // namespace bsoap::soap
