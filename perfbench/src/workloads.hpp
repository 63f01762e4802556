// The benchmark's traffic mixes.
//
// Each workload is a request generator per connection (seeded, so a seed
// fixes the inputs), the server's RpcHandler, and a correctness oracle:
//
//   patch_upload  put(double[10000]) through diff-wire + preset coding; the
//                 handler compares every parsed value with what that
//                 connection sent.
//   small_rpc     plain echo(seq, x, tag); the client checks the echo.
//
// README.md beside this directory records why each mix was chosen.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/client.hpp"
#include "probes.hpp"
#include "server/server_stats.hpp"
#include "soap/value.hpp"

namespace perfbench {

/// One connection's request stream and its client-side oracle. Used by one
/// load thread at a time.
class Stream {
 public:
  virtual ~Stream() = default;
  /// Prepares and returns the next call. The reference stays valid until
  /// the next call to next_call().
  virtual const bsoap::soap::RpcCall& next_call() = 0;
  /// True when `result` is the correct answer to the last call.
  virtual bool check(const bsoap::soap::Value& result) = 0;
  /// While on, only steady-state requests are issued. patch_upload's shift
  /// requests stall their connection for ~20 open-loop arrivals, so the
  /// requests they delay would land on p99 by chance; the open loop runs
  /// without them and times the patch path alone.
  virtual void set_steady_only(bool on) { (void)on; }
};

/// Counter deltas over a run's measured phases, for the regime report.
struct RegimeCounters {
  std::uint64_t requests = 0;  ///< invoke() calls made
  SendTotals send;
  std::uint64_t client_nacks = 0;  ///< diff-wire NACKs the clients read
  bsoap::server::ServerStats server;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual bsoap::core::BsoapClientConfig client_config() const { return {}; }

  /// The request stream of connection `index`.
  virtual std::unique_ptr<Stream> open_stream(int index) = 0;

  /// The server's handler body; called concurrently from worker threads.
  /// Verification work inside it is recorded as a kVerify span when
  /// `tracer` is set.
  virtual bsoap::Result<bsoap::soap::Value> handle(
      const bsoap::soap::RpcCall& call, Tracer* tracer) = 0;

  /// Appends a reason for every way `c` left this workload's regime.
  virtual void check_regime(const RegimeCounters& c,
                            std::vector<std::string>* flags) const = 0;
};

struct WorkloadInfo {
  const char* name;
  /// Fixed open-loop arrival rate over all connections, a quarter to a
  /// sixth of the closed-loop throughput measured when the benchmark was
  /// defined (README.md says why not half). Never derived at run time, so
  /// a faster or slower build meets the same load.
  double open_rate_rps;
  /// A fresh instance; its per-connection state starts clean.
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, int connections);
};

/// Null when `name` is not a workload.
const WorkloadInfo* find_workload(std::string_view name);

}  // namespace perfbench
