// Bench-side probes at the library's public boundaries.
//
// Nothing here reaches into the library: spans and counters are taken
// around the calls the benchmark makes and through the hooks the library
// already exposes (core::SendObserver, server::RecvObserver, a
// net::Transport returned by the client's net::Dialer, and the
// soap::RpcHandler the server calls).
//
// Tracing is for the separate traced run only. It assumes one request in
// flight at a time (a single connection in a closed loop), so every span
// recorded on any thread belongs to the request the load thread announced
// with Tracer::begin_request().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/send_pipeline.hpp"
#include "net/transport.hpp"
#include "server/recv_observer.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span kinds, one per layer boundary the benchmark can see.
enum class Span : std::uint8_t {
  kInvoke,      ///< BsoapClient::invoke() call (root)
  kResolve,     ///< client pipeline stages (SendObserver)
  kUpdate,
  kFrame,
  kWrite,
  kNetWrite,    ///< client socket writes (Transport wrapper)
  kNetRead,     ///< client socket reads, i.e. waiting for the response
  kDecode,      ///< server receive stages (RecvObserver)
  kPatchApply,
  kParse,
  kHandler,     ///< the benchmark's RpcHandler
  kVerify,      ///< correctness oracle (in the handler or after invoke)
};

const char* span_name(Span kind);

struct SpanRecord {
  std::uint32_t request = 0;
  Span kind = Span::kInvoke;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store for the traced run; written out after it ends.
/// Each recording thread appends to its own buffer, so the client and the
/// server worker never contend for one lock in the middle of a round trip.
class Tracer {
 public:
  Tracer() : id_(next_id_.fetch_add(1, std::memory_order_relaxed)) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans are kept only while enabled (the traced phase, not warm-up).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }

  /// Tags every span recorded from now on with `request`.
  void begin_request(std::uint32_t request) {
    current_.store(request, std::memory_order_release);
  }

  void record(Span kind, std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_.load(std::memory_order_acquire)) return;
    const std::uint32_t request = current_.load(std::memory_order_acquire);
    Buffer& b = local();
    std::lock_guard<std::mutex> lock(b.mu);
    b.spans.push_back(SpanRecord{request, kind, start_ns, end_ns});
  }

  /// Every span recorded so far, from all threads, in no particular order.
  std::vector<SpanRecord> take();

 private:
  struct Buffer {
    std::mutex mu;  ///< uncontended except against take()
    std::vector<SpanRecord> spans;
  };

  /// This thread's buffer, registered on first use.
  Buffer& local();

  static std::atomic<std::uint64_t> next_id_;
  const std::uint64_t id_;  ///< tells this tracer's buffers from a dead one's
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> current_{0};
  std::mutex mu_;  ///< guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Bytes through one client's sockets.
struct WireCounters {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
};

/// Transport the benchmark's dialer hands the client pool: forwards to the
/// TCP socket, counts bytes, and (traced run) records write/read spans.
class CountingTransport final : public bsoap::net::Transport {
 public:
  using Transport::send;
  CountingTransport(std::unique_ptr<bsoap::net::Transport> inner,
                    WireCounters& counters, Tracer* tracer)
      : inner_(std::move(inner)), counters_(counters), tracer_(tracer) {}

  bsoap::Status send(const char* data, std::size_t n) override;
  bsoap::Status send_slices(
      std::span<const bsoap::net::ConstSlice> slices) override;
  bsoap::Result<std::size_t> recv(char* out, std::size_t n) override;
  void shutdown_send() override { inner_->shutdown_send(); }
  void shutdown_both() override { inner_->shutdown_both(); }
  int native_handle() const override { return inner_->native_handle(); }

 private:
  std::unique_ptr<bsoap::net::Transport> inner_;
  WireCounters& counters_;
  Tracer* tracer_;
};

/// Client send-path totals, from the SendReports the pipeline hands its
/// observer (one per pipeline send, retries included).
struct SendTotals {
  std::uint64_t sends = 0;
  std::uint64_t first_time = 0;
  std::uint64_t content_match = 0;
  std::uint64_t perfect_match = 0;
  std::uint64_t partial_match = 0;
  std::uint64_t patch_sends = 0;
  std::uint64_t patch_replays = 0;
  std::uint64_t patch_runs = 0;
  std::uint64_t retries = 0;  ///< attempts beyond the first
  std::uint64_t update_bytes = 0;
  std::uint64_t coding_bytes_saved = 0;
  std::int64_t coding_ns = 0;

  SendTotals& operator+=(const SendTotals& rhs);
  SendTotals operator-(const SendTotals& rhs) const;
};

/// SendObserver of one client: always counts, records stage spans when a
/// tracer is attached. Read only after the sending thread has been joined.
class ClientProbe final : public bsoap::core::SendObserver {
 public:
  explicit ClientProbe(Tracer* tracer) : tracer_(tracer) {}

  void on_stage(bsoap::core::SendStage stage, std::int64_t elapsed_ns,
                std::size_t bytes) override;
  void on_send(const bsoap::core::SendReport& report) override;

  const SendTotals& totals() const { return totals_; }

 private:
  Tracer* tracer_;
  SendTotals totals_;
};

/// RecvObserver recording the server's receive stages as spans.
class ServerProbe final : public bsoap::server::RecvObserver {
 public:
  explicit ServerProbe(Tracer& tracer) : tracer_(tracer) {}

  void on_stage(bsoap::server::RecvStage stage, std::int64_t elapsed_ns,
                std::size_t bytes) override;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench
