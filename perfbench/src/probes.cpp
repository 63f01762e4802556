#include "probes.hpp"

namespace perfbench {

using bsoap::core::MatchKind;
using bsoap::core::SendStage;
using bsoap::server::RecvStage;

const char* span_name(Span kind) {
  switch (kind) {
    case Span::kInvoke: return "invoke";
    case Span::kResolve: return "core.resolve";
    case Span::kUpdate: return "core.update";
    case Span::kFrame: return "core.frame";
    case Span::kWrite: return "core.write";
    case Span::kNetWrite: return "net.write";
    case Span::kNetRead: return "net.read_wait";
    case Span::kDecode: return "server.decode";
    case Span::kPatchApply: return "server.patch_apply";
    case Span::kParse: return "server.parse";
    case Span::kHandler: return "server.handler";
    case Span::kVerify: return "bench.verify";
  }
  return "?";
}

std::atomic<std::uint64_t> Tracer::next_id_{1};

Tracer::Buffer& Tracer::local() {
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* mine = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    mine = buffers_.back().get();
    mine->spans.reserve(1u << 16);
    owner = id_;
  }
  return *mine;
}

std::vector<SpanRecord> Tracer::take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return all;
}

bsoap::Status CountingTransport::send(const char* data, std::size_t n) {
  const std::int64_t start = tracer_ != nullptr ? now_ns() : 0;
  bsoap::Status st = inner_->send(data, n);
  if (tracer_ != nullptr) tracer_->record(Span::kNetWrite, start, now_ns());
  if (st.ok()) counters_.sent.fetch_add(n, std::memory_order_relaxed);
  return st;
}

bsoap::Status CountingTransport::send_slices(
    std::span<const bsoap::net::ConstSlice> slices) {
  const std::int64_t start = tracer_ != nullptr ? now_ns() : 0;
  bsoap::Status st = inner_->send_slices(slices);
  if (tracer_ != nullptr) tracer_->record(Span::kNetWrite, start, now_ns());
  if (st.ok()) {
    std::uint64_t n = 0;
    for (const bsoap::net::ConstSlice& s : slices) n += s.len;
    counters_.sent.fetch_add(n, std::memory_order_relaxed);
  }
  return st;
}

bsoap::Result<std::size_t> CountingTransport::recv(char* out, std::size_t n) {
  const std::int64_t start = tracer_ != nullptr ? now_ns() : 0;
  bsoap::Result<std::size_t> got = inner_->recv(out, n);
  if (tracer_ != nullptr) tracer_->record(Span::kNetRead, start, now_ns());
  if (got.ok()) counters_.received.fetch_add(got.value(),
                                             std::memory_order_relaxed);
  return got;
}

SendTotals& SendTotals::operator+=(const SendTotals& rhs) {
  sends += rhs.sends;
  first_time += rhs.first_time;
  content_match += rhs.content_match;
  perfect_match += rhs.perfect_match;
  partial_match += rhs.partial_match;
  patch_sends += rhs.patch_sends;
  patch_replays += rhs.patch_replays;
  patch_runs += rhs.patch_runs;
  retries += rhs.retries;
  update_bytes += rhs.update_bytes;
  coding_bytes_saved += rhs.coding_bytes_saved;
  coding_ns += rhs.coding_ns;
  return *this;
}

SendTotals SendTotals::operator-(const SendTotals& rhs) const {
  SendTotals d;
  d.sends = sends - rhs.sends;
  d.first_time = first_time - rhs.first_time;
  d.content_match = content_match - rhs.content_match;
  d.perfect_match = perfect_match - rhs.perfect_match;
  d.partial_match = partial_match - rhs.partial_match;
  d.patch_sends = patch_sends - rhs.patch_sends;
  d.patch_replays = patch_replays - rhs.patch_replays;
  d.patch_runs = patch_runs - rhs.patch_runs;
  d.retries = retries - rhs.retries;
  d.update_bytes = update_bytes - rhs.update_bytes;
  d.coding_bytes_saved = coding_bytes_saved - rhs.coding_bytes_saved;
  d.coding_ns = coding_ns - rhs.coding_ns;
  return d;
}

void ClientProbe::on_stage(SendStage stage, std::int64_t elapsed_ns,
                           std::size_t bytes) {
  if (stage == SendStage::kUpdate) totals_.update_bytes += bytes;
  if (tracer_ == nullptr) return;
  const std::int64_t end = now_ns();
  Span kind = Span::kResolve;
  switch (stage) {
    case SendStage::kResolve: kind = Span::kResolve; break;
    case SendStage::kUpdate: kind = Span::kUpdate; break;
    case SendStage::kFrame: kind = Span::kFrame; break;
    case SendStage::kWrite: kind = Span::kWrite; break;
  }
  tracer_->record(kind, end - elapsed_ns, end);
}

void ClientProbe::on_send(const bsoap::core::SendReport& report) {
  totals_.sends += 1;
  switch (report.match) {
    case MatchKind::kFirstTime: totals_.first_time += 1; break;
    case MatchKind::kContentMatch: totals_.content_match += 1; break;
    case MatchKind::kPerfectStructural: totals_.perfect_match += 1; break;
    case MatchKind::kPartialStructural: totals_.partial_match += 1; break;
  }
  if (report.patch_send) totals_.patch_sends += 1;
  if (report.patch_replay) totals_.patch_replays += 1;
  totals_.patch_runs += report.patch_runs;
  totals_.retries += report.attempts > 0 ? report.attempts - 1 : 0;
  totals_.coding_bytes_saved += report.coding_bytes_saved;
  totals_.coding_ns += report.coding_ns;
}

void ServerProbe::on_stage(RecvStage stage, std::int64_t elapsed_ns,
                           std::size_t bytes) {
  (void)bytes;
  const std::int64_t end = now_ns();
  Span kind = Span::kParse;
  switch (stage) {
    case RecvStage::kDecode: kind = Span::kDecode; break;
    case RecvStage::kPatchApply: kind = Span::kPatchApply; break;
    case RecvStage::kParse: kind = Span::kParse; break;
  }
  tracer_.record(kind, end - elapsed_ns, end);
}

}  // namespace perfbench
