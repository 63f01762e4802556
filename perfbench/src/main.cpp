// perfbench_driver: one workload run of the end-to-end benchmark.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-file PATH]
//
// A run starts a server::ServerRuntime in-process (default options except
// workers = 2) and drives it with pooled core::BsoapClient::invoke() round
// trips over loopback TCP. No engine or mode knob is set, so the defaults
// in force are what gets measured.
//
// --trace 0 (timed run): set-up + warm-up (repeated, median reported), then
// kRounds rounds of a closed loop of 2 connections for S/(3 kRounds) seconds
// and an open loop at the workload's fixed rate for 2S/(3 kRounds) seconds.
// Prints the end-to-end metrics.
//
// The process runs on kCpus CPUs.
//
// --trace 1 (traced run): an untraced 1-connection closed loop (the
// throughput base), an untraced open loop (generator lateness), then a
// traced 1-connection closed loop, each S/3 seconds. Writes the spans to
// the trace file and prints the per-layer rollup.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "net/tcp.hpp"
#include "probes.hpp"
#include "server/server_runtime.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bsoap::Result;
using bsoap::soap::RpcCall;
using bsoap::soap::Value;

constexpr int kConnections = 2;
/// CPUs the whole process, clients and server, may run on: a deployment
/// setting, like workers. On more CPUs every hand-off between a client
/// thread and a server worker depends on where the scheduler placed the
/// four threads and on how fast the host wakes an idle vCPU; both change
/// from one closed-loop slice to the next, and small_rpc's slice rates
/// then differed by up to 2x within one run. On one CPU the rates measure
/// the work per request, thread hops included.
constexpr int kCpus = 1;
/// Set-ups per timed run; setup_s is their median.
constexpr int kSetups = 11;
/// Closed/open slice pairs per timed run.
constexpr int kRounds = 10;
/// Warm-up round trips per connection: covers first-time sends and pin
/// negotiation on each worker. With fewer, small_rpc's set-up lasted ~2 ms
/// and its median moved 25% between batches of runs with the host's
/// wake-up latency.
constexpr int kWarmupRequests = 128;
/// Cap on traced round trips (small_rpc reaches it in about a second):
/// enough for the rollup, and keeps the span file near 20 MB.
constexpr std::uint32_t kMaxTracedRequests = 50'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::string_view(v) == "1";
    } else if (flag == "--trace-file") {
      a.trace_file = v;
    } else {
      usage("unknown flag");
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown workload");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace_file.empty()) a.trace_file = a.workload + ".spans.tsv";
  return a;
}

// ---------------------------------------------------------------------------
// Deployment: the server plus its client connections, warmed up.

struct ClientSlot {
  explicit ClientSlot(Tracer* tracer) : probe(tracer) {}
  WireCounters wire;
  ClientProbe probe;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<bsoap::core::BsoapClient> client;
};

enum class Outcome { kOk, kFailed, kWrong };

/// One round trip on `c`; traced when `tracer` is set.
Outcome round_trip(ClientSlot& c, Tracer* tracer, std::uint32_t request) {
  const RpcCall& call = c.stream->next_call();
  if (tracer != nullptr) tracer->begin_request(request);
  const std::int64_t start = tracer != nullptr ? now_ns() : 0;
  Result<Value> got = c.client->invoke(call);
  if (tracer != nullptr) {
    const std::int64_t end = now_ns();
    tracer->record(Span::kInvoke, start, end);
    if (!got.ok()) return Outcome::kFailed;
    const bool right = c.stream->check(got.value());
    tracer->record(Span::kVerify, end, now_ns());
    return right ? Outcome::kOk : Outcome::kWrong;
  }
  if (!got.ok()) return Outcome::kFailed;
  return c.stream->check(got.value()) ? Outcome::kOk : Outcome::kWrong;
}

class Deployment {
 public:
  /// Server start, client connects and warm-up: everything before the
  /// steady phase, i.e. what setup_s times.
  static Result<std::unique_ptr<Deployment>> start(const Args& args,
                                                   int connections,
                                                   Tracer* tracer) {
    std::unique_ptr<Deployment> d(new Deployment());
    d->workload_ =
        find_workload(args.workload)->make(args.seed, connections);
    Workload* w = d->workload_.get();
    bsoap::server::ServerRuntimeOptions options;
    options.workers = 2;  // deployment setting; engine and modes stay default
    if (tracer != nullptr) {
      d->server_probe_ = std::make_unique<ServerProbe>(*tracer);
      options.recv_observer = d->server_probe_.get();
    }
    bsoap::soap::RpcHandler handler =
        [w, tracer](const RpcCall& call) -> Result<Value> {
      if (tracer == nullptr) return w->handle(call, nullptr);
      const std::int64_t start = now_ns();
      Result<Value> out = w->handle(call, tracer);
      tracer->record(Span::kHandler, start, now_ns());
      return out;
    };
    auto server = bsoap::server::ServerRuntime::start(std::move(handler),
                                                      options);
    if (!server.ok()) return server.error();
    d->server_ = std::move(server.value());

    const std::uint16_t port = d->server_->port();
    for (int i = 0; i < connections; ++i) {
      auto slot = std::make_unique<ClientSlot>(tracer);
      WireCounters* wire = &slot->wire;
      bsoap::net::Dialer dial =
          [port, wire,
           tracer]() -> Result<std::unique_ptr<bsoap::net::Transport>> {
        auto t = bsoap::net::tcp_connect(port);
        if (!t.ok()) return t.error();
        return std::unique_ptr<bsoap::net::Transport>(
            new CountingTransport(std::move(t.value()), *wire, tracer));
      };
      slot->client = std::make_unique<bsoap::core::BsoapClient>(
          std::move(dial), w->client_config());
      slot->client->pipeline().set_observer(&slot->probe);
      slot->stream = w->open_stream(i);
      d->clients_.push_back(std::move(slot));
    }
    for (auto& c : d->clients_) {
      for (int r = 0; r < kWarmupRequests; ++r) {
        if (round_trip(*c, nullptr, 0) != Outcome::kOk) {
          return bsoap::Error{bsoap::ErrorCode::kProtocolError,
                              "warm-up round trip failed"};
        }
      }
    }
    return d;
  }

  ~Deployment() {
    clients_.clear();
    if (server_ != nullptr) server_->stop();
  }

  Workload& workload() { return *workload_; }
  bsoap::server::ServerRuntime& server() { return *server_; }
  ClientSlot& client(int i) { return *clients_[static_cast<std::size_t>(i)]; }
  int connections() const { return static_cast<int>(clients_.size()); }

 private:
  Deployment() = default;

  // Destroyed bottom-up: clients, then the server, then what it points at.
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<ServerProbe> server_probe_;
  std::unique_ptr<bsoap::server::ServerRuntime> server_;
  std::vector<std::unique_ptr<ClientSlot>> clients_;
};

/// Deployment::start, reporting a failure on stderr (null then).
std::unique_ptr<Deployment> deploy(const Args& args, int connections,
                                   Tracer* tracer) {
  auto started = Deployment::start(args, connections, tracer);
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 started.error().to_string().c_str());
    return nullptr;
  }
  return std::move(started.value());
}

// ---------------------------------------------------------------------------
// Counter snapshots.

struct Snapshot {
  SendTotals send;
  std::uint64_t client_nacks = 0;
  bsoap::server::ServerStats server;
  std::uint64_t wire_bytes = 0;
};

Snapshot snapshot(Deployment& d) {
  Snapshot s;
  for (int i = 0; i < d.connections(); ++i) {
    ClientSlot& c = d.client(i);
    s.send += c.probe.totals();
    if (const auto* diff = c.client->diffwire_stats()) {
      s.client_nacks += diff->patch_nacks;
    }
    s.wire_bytes += c.wire.sent.load(std::memory_order_relaxed) +
                    c.wire.received.load(std::memory_order_relaxed);
  }
  s.server = d.server().stats();
  return s;
}

/// Counter deltas b - a for the regime report (monotonic counters only;
/// gauges are taken from b).
RegimeCounters delta(const Snapshot& a, const Snapshot& b,
                     std::uint64_t requests) {
  RegimeCounters c;
  c.requests = requests;
  c.send = b.send - a.send;
  c.client_nacks = b.client_nacks - a.client_nacks;
  c.server = b.server;
  using S = bsoap::server::ServerStats;
  for (auto f : {&S::rejected, &S::requests, &S::faults, &S::bad_requests,
                 &S::response_first_time, &S::response_content_match,
                 &S::response_perfect_match, &S::response_partial_match,
                 &S::patch_sends, &S::patch_nacks, &S::deser_content_hits,
                 &S::deser_fast_parses, &S::deser_full_parses,
                 &S::deser_demotions, &S::compressed_sends}) {
    c.server.*f = b.server.*f - a.server.*f;
  }
  return c;
}

/// Prints the regime verdict and one line per flag raised.
void report_regime(const Args& args, Deployment& d, const RegimeCounters& c) {
  std::vector<std::string> flags;
  d.workload().check_regime(c, &flags);
  if (c.server.faults != 0 || c.server.bad_requests != 0) {
    flags.push_back("server answered faults");
  }
  if (c.server.rejected != 0) flags.push_back("server rejected connections");
  if (c.send.retries != 0) flags.push_back("client retried sends");
  std::printf(
      "regime %s: %s | requests %llu, client match first/content/perfect/"
      "partial %llu/%llu/%llu/%llu, patch %llu (replay %llu, runs %llu), "
      "nacks %llu, server deser content/fast/full/demoted %llu/%llu/%llu/"
      "%llu, responses reused %llu of %llu\n",
      args.workload.c_str(), flags.empty() ? "ok" : "FLAGGED",
      static_cast<unsigned long long>(c.requests),
      static_cast<unsigned long long>(c.send.first_time),
      static_cast<unsigned long long>(c.send.content_match),
      static_cast<unsigned long long>(c.send.perfect_match),
      static_cast<unsigned long long>(c.send.partial_match),
      static_cast<unsigned long long>(c.send.patch_sends),
      static_cast<unsigned long long>(c.send.patch_replays),
      static_cast<unsigned long long>(c.send.patch_runs),
      static_cast<unsigned long long>(c.client_nacks),
      static_cast<unsigned long long>(c.server.deser_content_hits),
      static_cast<unsigned long long>(c.server.deser_fast_parses),
      static_cast<unsigned long long>(c.server.deser_full_parses),
      static_cast<unsigned long long>(c.server.deser_demotions),
      static_cast<unsigned long long>(c.server.response_diff_hits()),
      static_cast<unsigned long long>(c.server.responses_total()));
  for (const std::string& f : flags) {
    std::printf("regime %s: flag: %s\n", args.workload.c_str(), f.c_str());
  }
}

// ---------------------------------------------------------------------------
// Load phases.

struct Tally {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;

  void add(Outcome o) {
    requests += 1;
    if (o == Outcome::kFailed) failed += 1;
    if (o == Outcome::kWrong) wrong += 1;
  }
  void add(const Tally& t) {
    requests += t.requests;
    failed += t.failed;
    wrong += t.wrong;
  }
  std::uint64_t bad() const { return failed + wrong; }
};

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(t - now_ns()));
}

/// Confines this thread, and the threads it starts from now on, to the
/// first `n` CPUs it is allowed on.
void confine_to_cpus(int n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t use;
  CPU_ZERO(&use);
  for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &use);
      ++taken;
    }
  }
  if (sched_setaffinity(0, sizeof use, &use) != 0) {
    std::perror("perfbench: sched_setaffinity");
  }
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

struct ClosedResult {
  Tally tally;
  double elapsed_s = 0;
  double cpu_s = 0;

  double verified_rps() const {
    return static_cast<double>(tally.requests - tally.bad()) / elapsed_s;
  }
};

/// Each of the first `connections` clients sends its next request as soon
/// as the previous one returns, for `seconds` or `max_requests` requests
/// per connection, whichever ends first.
ClosedResult closed_loop(Deployment& d, int connections, double seconds,
                         Tracer* tracer,
                         std::uint32_t max_requests = UINT32_MAX) {
  const std::int64_t start = now_ns() + 5'000'000;
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<Tally> tallies(static_cast<std::size_t>(connections));
  std::vector<std::int64_t> ends(static_cast<std::size_t>(connections));
  const double cpu0 = cpu_seconds();
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < connections; ++i) {
      threads.emplace_back([&, i] {
        const auto slot = static_cast<std::size_t>(i);
        ClientSlot& c = d.client(i);
        std::uint32_t request = 0;
        sleep_until_ns(start);
        while (now_ns() < deadline && request < max_requests) {
          tallies[slot].add(round_trip(c, tracer, ++request));
        }
        ends[slot] = now_ns();
      });
    }
  }
  ClosedResult r;
  r.cpu_s = cpu_seconds() - cpu0;
  for (const Tally& t : tallies) r.tally.add(t);
  r.elapsed_s =
      static_cast<double>(*std::max_element(ends.begin(), ends.end()) - start) /
      1e9;
  return r;
}

struct OpenResult {
  Tally tally;
  std::vector<double> latency_us;  ///< from each request's scheduled time
  std::vector<std::int64_t> due_ns;  ///< latency_us[i]'s scheduled time
  std::vector<double> late_us;     ///< actual send time minus scheduled
};

/// Open-loop latency samples per p99 window: each window's p99 then has
/// at least 10 samples beyond it.
constexpr std::size_t kSamplesPerWindow = 1000;

/// Fixed-rate arrivals: request k of connection i is due at
/// start + (k + i / connections) * interval, interval = connections / rate.
/// A connection still busy when a request falls due sends it late; the
/// latency still counts from the due time, so a stall is charged to every
/// request it delays. A failed request counts as the whole phase.
OpenResult open_loop(Deployment& d, double rate_rps, double seconds) {
  const int n = d.connections();
  const double interval_ns = 1e9 * n / rate_rps;
  const std::int64_t start = now_ns() + 5'000'000;
  const std::int64_t span = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t deadline = start + span;
  const double failed_us = seconds * 1e6;
  std::vector<OpenResult> parts(static_cast<std::size_t>(n));
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        ClientSlot& c = d.client(i);
        OpenResult& out = parts[static_cast<std::size_t>(i)];
        c.stream->set_steady_only(true);
        const auto expected =
            static_cast<std::size_t>(rate_rps * seconds / n) + 16;
        out.latency_us.reserve(expected);
        out.due_ns.reserve(expected);
        out.late_us.reserve(expected);
        for (std::int64_t k = 0;; ++k) {
          const std::int64_t due =
              start + static_cast<std::int64_t>(
                          (static_cast<double>(k) +
                           static_cast<double>(i) / n) *
                          interval_ns);
          if (due >= deadline) break;
          sleep_until_ns(due);
          const std::int64_t sent = now_ns();
          const Outcome o = round_trip(c, nullptr, 0);
          const std::int64_t done = now_ns();
          out.tally.add(o);
          out.late_us.push_back(static_cast<double>(sent - due) / 1e3);
          out.latency_us.push_back(o == Outcome::kOk
                                       ? static_cast<double>(done - due) / 1e3
                                       : failed_us);
          out.due_ns.push_back(due);
        }
        c.stream->set_steady_only(false);
      });
    }
  }
  OpenResult all;
  for (OpenResult& p : parts) {
    all.tally.add(p.tally);
    all.latency_us.insert(all.latency_us.end(), p.latency_us.begin(),
                          p.latency_us.end());
    all.due_ns.insert(all.due_ns.end(), p.due_ns.begin(), p.due_ns.end());
    all.late_us.insert(all.late_us.end(), p.late_us.begin(), p.late_us.end());
  }
  return all;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Number of arrival windows windowed_p99 splits `samples` into.
std::size_t p99_windows(std::size_t samples) {
  return std::max<std::size_t>(1, samples / kSamplesPerWindow);
}

/// The median over arrival windows of each window's p99. Windows are runs
/// of consecutive arrivals, kSamplesPerWindow each (the last takes the
/// remainder), so a burst of stolen CPU in one window moves one window, not
/// the result.
double windowed_p99(const OpenResult& open) {
  std::vector<std::size_t> order(open.latency_us.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return open.due_ns[a] < open.due_ns[b];
  });
  const std::size_t windows = p99_windows(order.size());
  const std::size_t per = order.size() / windows;
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t end = w + 1 == windows ? order.size() : (w + 1) * per;
    std::vector<double> window;
    for (std::size_t i = w * per; i < end; ++i) {
      window.push_back(open.latency_us[order[i]]);
    }
    p99s.push_back(percentile(std::move(window), 0.99));
  }
  return median(std::move(p99s));
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.wrong == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.requests);
  out += ", \"failed\": " + std::to_string(tally.bad());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_metric_lines(const char* heading, const std::vector<Metric>& ms) {
  std::printf("%s\n", heading);
  for (const Metric& m : ms) {
    std::printf("  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// ---------------------------------------------------------------------------
// Timed run.

int timed_run(const Args& args) {
  const WorkloadInfo& info = *find_workload(args.workload);
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int k = 0; k < kSetups; ++k) {
    d.reset();
    const std::int64_t t0 = now_ns();
    d = deploy(args, kConnections, nullptr);
    if (d == nullptr) return 1;
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // The run alternates closed- and open-loop slices, a third of the time
  // closed, so that both phases sample the whole run: the host's slow
  // spells last tens of seconds, and each slice starts fresh load threads,
  // so how the scheduler interleaves them is drawn anew kRounds times.
  const double closed_s = args.seconds / 3 / kRounds;
  const double open_s = (args.seconds - args.seconds / 3) / kRounds;
  ClosedResult closed;
  std::vector<double> slice_rps;  ///< each closed-loop slice's rate
  OpenResult open;
  std::uint64_t closed_wire_bytes = 0;
  const Snapshot s0 = snapshot(*d);
  for (int round = 0; round < kRounds; ++round) {
    const Snapshot before = snapshot(*d);
    ClosedResult c = closed_loop(*d, kConnections, closed_s, nullptr);
    closed_wire_bytes += snapshot(*d).wire_bytes - before.wire_bytes;
    closed.tally.add(c.tally);
    closed.elapsed_s += c.elapsed_s;
    closed.cpu_s += c.cpu_s;
    slice_rps.push_back(c.verified_rps());

    OpenResult o = open_loop(*d, info.open_rate_rps, open_s);
    open.tally.add(o.tally);
    open.latency_us.insert(open.latency_us.end(), o.latency_us.begin(),
                           o.latency_us.end());
    open.late_us.insert(open.late_us.end(), o.late_us.begin(),
                        o.late_us.end());
    open.due_ns.insert(open.due_ns.end(), o.due_ns.begin(), o.due_ns.end());
  }
  const Snapshot s2 = snapshot(*d);

  Tally all = closed.tally;
  all.add(open.tally);
  const double done = static_cast<double>(closed.tally.requests);
  const double error_ratio = static_cast<double>(all.bad()) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 all.requests, 1));

  std::printf(
      "workload %s seed %llu: %d connections, %d x (closed loop %.1f s, "
      "open loop %.0f req/s for %.1f s), setup x%d\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      kConnections, kRounds, closed_s, info.open_rate_rps, open_s, kSetups);
  std::printf(
      "closed loop: %llu requests in %.3f s; open loop: %llu latency samples "
      "in %zu windows, over all samples p50 %.1f p99 %.1f p99.9 %.1f max "
      "%.1f us, "
      "generator late p50 %.1f p99 %.1f us; failed %llu, wrong %llu\n",
      static_cast<unsigned long long>(closed.tally.requests), closed.elapsed_s,
      static_cast<unsigned long long>(open.latency_us.size()),
      p99_windows(open.latency_us.size()),
      percentile(open.latency_us, 0.5), percentile(open.latency_us, 0.99),
      percentile(open.latency_us, 0.999),
      percentile(open.latency_us, 1.0), percentile(open.late_us, 0.5),
      percentile(open.late_us, 0.99),
      static_cast<unsigned long long>(all.failed),
      static_cast<unsigned long long>(all.wrong));
  report_regime(args, *d, delta(s0, s2, all.requests));
  std::printf("closed-loop slice rates (1/s):");
  for (const double r : slice_rps) std::printf(" %.0f", r);
  std::printf("\n");

  const std::vector<Metric> metrics = {
      {"throughput_rps", closed.verified_rps(), "1/s"},
      {"latency_p50_us", percentile(open.latency_us, 0.5), "us"},
      {"latency_p99_us", windowed_p99(open), "us"},
      {"cpu_us_per_req", closed.cpu_s * 1e6 / std::max(done, 1.0), "us"},
      {"wire_bytes_per_req",
       static_cast<double>(closed_wire_bytes) / std::max(done, 1.0), "bytes"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"success_ratio", 1.0 - error_ratio, "ratio"},
      {"setup_s", median(setup_s), "s"},
  };
  print_metric_lines("end-to-end metrics:", metrics);
  std::printf("  (latency over %zu open-loop samples, p99 over %zu windows)\n",
              open.latency_us.size(), p99_windows(open.latency_us.size()));
  std::printf("  %-26s %14.6g %s\n", "error_ratio", error_ratio, "ratio");
  std::fflush(stdout);
  d.reset();
  print_result(all, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run.

/// Pieces of one request's invoke() interval. Every instant of the
/// interval is charged to exactly one piece, so the pieces add up to the
/// round trip.
enum Piece : std::size_t {
  kResolvePiece,
  kUpdatePiece,
  kFramePiece,
  kWritePiece,       ///< core.write self time (its socket writes excluded)
  kNetWritePiece,
  kIngressPiece,     ///< request bytes written -> first server stage
  kDecodePiece,
  kPatchApplyPiece,
  kParsePiece,
  kHandlerPiece,     ///< handler self time (its verification excluded)
  kVerifyPiece,      ///< verification inside the handler
  kRespondPiece,     ///< handler return -> last response byte read
  kResponseParsePiece,  ///< last response byte read -> invoke() returns
  kUnattributedPiece,
  kPieces,
};

/// Where overlapping spans meet, the instant goes to the first piece of
/// this list that is active. Server stages come before the client's write:
/// on loopback the woken server thread often preempts the writing client
/// on its CPU, so the client's write only returns once the server has
/// answered, and the server's stages are what that time was spent on.
constexpr Piece kPriority[] = {
    kVerifyPiece,    kHandlerPiece, kParsePiece,  kPatchApplyPiece,
    kDecodePiece,    kRespondPiece, kNetWritePiece, kWritePiece,
    kFramePiece,     kUpdatePiece,  kResolvePiece,  kIngressPiece,
    kResponseParsePiece,
};

Piece piece_of(Span kind) {
  switch (kind) {
    case Span::kResolve: return kResolvePiece;
    case Span::kUpdate: return kUpdatePiece;
    case Span::kFrame: return kFramePiece;
    case Span::kWrite: return kWritePiece;
    case Span::kNetWrite: return kNetWritePiece;
    case Span::kDecode: return kDecodePiece;
    case Span::kPatchApply: return kPatchApplyPiece;
    case Span::kParse: return kParsePiece;
    case Span::kHandler: return kHandlerPiece;
    case Span::kVerify: return kVerifyPiece;
    default: return kPieces;  // invoke (the whole) and read waits (overlap)
  }
}

/// Per-request means (ns) over the traced requests.
struct Rollup {
  std::uint64_t requests = 0;
  double invoke = 0;
  double read_wait = 0;  ///< client time blocked reading; overlaps pieces
  double verify = 0;     ///< every oracle, in the handler or after invoke()
  double piece[kPieces] = {};
};

struct Interval {
  std::int64_t begin;
  std::int64_t end;
  Piece piece;
};

/// Charges each instant of [inv_begin, inv_end) to the highest-priority
/// interval covering it, the rest to unattributed.
void charge(const std::vector<Interval>& intervals, std::int64_t inv_begin,
            std::int64_t inv_end, double* out) {
  std::vector<std::int64_t> cuts = {inv_begin, inv_end};
  for (const Interval& iv : intervals) {
    cuts.push_back(std::clamp(iv.begin, inv_begin, inv_end));
    cuts.push_back(std::clamp(iv.end, inv_begin, inv_end));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const std::int64_t a = cuts[i];
    const std::int64_t b = cuts[i + 1];
    Piece best = kUnattributedPiece;
    std::size_t best_rank = std::size(kPriority);
    for (const Interval& iv : intervals) {
      if (iv.begin > a || iv.end < b) continue;
      const auto rank = static_cast<std::size_t>(
          std::find(std::begin(kPriority), std::end(kPriority), iv.piece) -
          std::begin(kPriority));
      if (rank < best_rank) {
        best_rank = rank;
        best = iv.piece;
      }
    }
    out[best] += static_cast<double>(b - a);
  }
}

/// Splits each traced request's invoke() interval into pieces: the
/// recorded spans, plus three derived from their boundaries — ingress
/// (from the first client write to the first server stage, where no write
/// covers it), respond (handler return to the last response byte read) and
/// response parse (last read to invoke() return).
Rollup roll_up(std::vector<SpanRecord>& spans) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.request < b.request;
                   });
  Rollup r;
  std::vector<Interval> intervals;
  for (std::size_t i = 0, j = 0; i < spans.size(); i = j) {
    j = i;
    while (j < spans.size() && spans[j].request == spans[i].request) ++j;
    const SpanRecord* inv = nullptr;
    for (std::size_t k = i; k < j; ++k) {
      if (spans[k].kind == Span::kInvoke) inv = &spans[k];
    }
    if (inv == nullptr || spans[i].request == 0) continue;

    intervals.clear();
    std::int64_t first_write = INT64_MAX, first_server = INT64_MAX;
    std::int64_t handler_end = 0, last_read = 0;
    double read_wait = 0, verify = 0;
    for (std::size_t k = i; k < j; ++k) {
      const SpanRecord& s = spans[k];
      if (s.kind == Span::kWrite) first_write = std::min(first_write, s.start_ns);
      if (s.kind == Span::kDecode || s.kind == Span::kPatchApply ||
          s.kind == Span::kParse || s.kind == Span::kHandler) {
        first_server = std::min(first_server, s.start_ns);
      }
      if (s.kind == Span::kHandler) handler_end = std::max(handler_end, s.end_ns);
      if (s.kind == Span::kNetRead) {
        read_wait += static_cast<double>(s.end_ns - s.start_ns);
        if (s.end_ns <= inv->end_ns) last_read = std::max(last_read, s.end_ns);
      }
      if (s.kind == Span::kVerify) {
        verify += static_cast<double>(s.end_ns - s.start_ns);
      }
      const Piece p = piece_of(s.kind);
      if (p != kPieces) intervals.push_back({s.start_ns, s.end_ns, p});
    }
    if (first_write < first_server && first_server != INT64_MAX) {
      intervals.push_back({first_write, first_server, kIngressPiece});
    }
    if (handler_end != 0 && last_read > handler_end) {
      intervals.push_back({handler_end, last_read, kRespondPiece});
    }
    if (last_read != 0) {
      intervals.push_back({last_read, inv->end_ns, kResponseParsePiece});
    }
    charge(intervals, inv->start_ns, inv->end_ns, r.piece);
    r.requests += 1;
    r.invoke += static_cast<double>(inv->end_ns - inv->start_ns);
    r.read_wait += read_wait;
    r.verify += verify;
  }
  if (r.requests > 0) {
    const double n = static_cast<double>(r.requests);
    r.invoke /= n;
    r.read_wait /= n;
    r.verify /= n;
    for (double& p : r.piece) p /= n;
  }
  return r;
}

/// One line per span: request, name, parent, start and end (ns from the
/// first span). `spans` is sorted by request.
bool write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "request\tspan\tparent\tstart_ns\tend_ns\n");
  std::size_t group = 0;  // first span of the current request
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.request != spans[group].request) group = i;
    const char* parent = span_name(Span::kInvoke);
    if (s.kind == Span::kInvoke) {
      parent = "-";
    } else if (s.kind == Span::kNetWrite) {
      parent = span_name(Span::kWrite);
    } else if (s.kind == Span::kVerify) {
      parent = "-";  // the client-side oracle, after invoke() returned
      for (std::size_t k = group;
           k < spans.size() && spans[k].request == s.request; ++k) {
        if (spans[k].kind == Span::kHandler &&
            s.start_ns >= spans[k].start_ns && s.end_ns <= spans[k].end_ns) {
          parent = span_name(Span::kHandler);
        }
      }
    }
    std::fprintf(f, "%u\t%s\t%s\t%lld\t%lld\n", s.request, span_name(s.kind),
                 parent, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(f) == 0;
}

int traced_run(const Args& args) {
  const WorkloadInfo& info = *find_workload(args.workload);
  const double phase_s = args.seconds / 3;
  Tally all;

  // Untraced: the 1-connection throughput base, then generator lateness
  // under the timed run's open loop.
  double untraced_rps = 0;
  double gen_late_p99 = 0;
  double open_p99 = 0;
  {
    std::unique_ptr<Deployment> untraced = deploy(args, kConnections, nullptr);
    if (untraced == nullptr) return 1;
    Deployment& d = *untraced;
    const ClosedResult base = closed_loop(d, 1, phase_s, nullptr);
    untraced_rps = static_cast<double>(base.tally.requests) / base.elapsed_s;
    const OpenResult open = open_loop(d, info.open_rate_rps, phase_s);
    gen_late_p99 = percentile(open.late_us, 0.99);
    open_p99 = windowed_p99(open);
    all.add(base.tally);
    all.add(open.tally);
  }

  Tracer tracer;
  std::unique_ptr<Deployment> traced_deployment = deploy(args, 1, &tracer);
  if (traced_deployment == nullptr) return 1;
  Deployment& d = *traced_deployment;
  const Snapshot s0 = snapshot(d);
  tracer.set_enabled(true);
  const ClosedResult traced =
      closed_loop(d, 1, phase_s, &tracer, kMaxTracedRequests);
  tracer.set_enabled(false);
  const Snapshot s1 = snapshot(d);
  all.add(traced.tally);
  const double traced_rps =
      static_cast<double>(traced.tally.requests) / traced.elapsed_s;

  std::vector<SpanRecord> spans = tracer.take();
  const Rollup r = roll_up(spans);
  if (!write_spans(args.trace_file, spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_file.c_str());
    return 1;
  }
  const RegimeCounters c = delta(s0, s1, traced.tally.requests);

  const double n = static_cast<double>(std::max<std::uint64_t>(c.requests, 1));
  auto per_req = [&](double v) { return v / n; };
  auto ratio = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  const std::vector<Metric> metrics = {
      {"core.resolve_ns", r.piece[kResolvePiece], "ns"},
      {"core.update_ns", r.piece[kUpdatePiece], "ns"},
      {"core.update_bytes", per_req(static_cast<double>(c.send.update_bytes)),
       "bytes"},
      {"core.frame_ns", r.piece[kFramePiece], "ns"},
      {"core.write_ns", r.piece[kWritePiece], "ns"},
      {"core.diff_ratio",
       ratio(c.send.sends - c.send.first_time, c.send.sends), "ratio"},
      {"net.write_ns", r.piece[kNetWritePiece], "ns"},
      {"net.read_wait_ns", r.read_wait, "ns"},
      {"server.ingress_ns", r.piece[kIngressPiece], "ns"},
      {"server.decode_ns", r.piece[kDecodePiece], "ns"},
      {"server.patch_apply_ns", r.piece[kPatchApplyPiece], "ns"},
      {"server.parse_ns", r.piece[kParsePiece], "ns"},
      {"server.handler_ns", r.piece[kHandlerPiece], "ns"},
      {"server.respond_ns", r.piece[kRespondPiece], "ns"},
      {"server.deser_fast_ratio",
       ratio(c.server.deser_fast_parses + c.server.deser_content_hits,
             c.server.requests),
       "ratio"},
      {"server.demotions", static_cast<double>(c.server.deser_demotions),
       "count"},
      {"server.response_diff_ratio",
       ratio(c.server.response_diff_hits(), c.server.responses_total()),
       "ratio"},
      {"server.queue_high_water",
       static_cast<double>(c.server.queue_high_water), "count"},
      {"server.rejected", static_cast<double>(c.server.rejected), "count"},
      {"diffwire.patch_ratio", ratio(c.send.patch_sends, c.requests), "ratio"},
      {"diffwire.replay_ratio", ratio(c.send.patch_replays, c.requests),
       "ratio"},
      {"diffwire.runs_per_req",
       per_req(static_cast<double>(c.send.patch_runs)), "count"},
      {"diffwire.nacks", static_cast<double>(c.client_nacks), "count"},
      {"compress.coding_ns", per_req(static_cast<double>(c.send.coding_ns)),
       "ns"},
      {"compress.saved_bytes",
       per_req(static_cast<double>(c.send.coding_bytes_saved)), "bytes"},
      {"soap.response_parse_ns", r.piece[kResponseParsePiece], "ns"},
      {"resilience.retries", static_cast<double>(c.send.retries), "count"},
      {"unattributed_ns", r.piece[kUnattributedPiece], "ns"},
      {"bench.invoke_ns", r.invoke, "ns"},
      {"bench.verify_ns", r.verify, "ns"},
      {"bench.trace_overhead", untraced_rps / traced_rps - 1.0, "ratio"},
      {"bench.untraced_rps", untraced_rps, "1/s"},
      {"bench.gen_late_p99_us", gen_late_p99, "us"},
      {"bench.open_p99_us", open_p99, "us"},
  };

  std::printf(
      "workload %s seed %llu: traced 1-connection closed loop %.1f s, %llu "
      "requests (%.0f req/s traced vs %.0f untraced), %zu spans -> %s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      traced.elapsed_s, static_cast<unsigned long long>(traced.tally.requests),
      traced_rps, untraced_rps, spans.size(), args.trace_file.c_str());
  report_regime(args, d, c);
  print_metric_lines(("per-layer rollup, " + args.workload +
                      " (ns are self time per request):")
                         .c_str(),
                     metrics);
  std::fflush(stdout);
  traced_deployment.reset();
  print_result(all, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  // Timer slack of 1 ns: open-loop sleeps wake on time, not up to 50 us
  // late. Threads inherit it from here.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  perfbench::confine_to_cpus(perfbench::kCpus);
  return args.trace ? perfbench::traced_run(args)
                    : perfbench::timed_run(args);
}
