#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/rng.hpp"
#include "soap/workload.hpp"
#include "textconv/dtoa.hpp"
#include "textconv/parse.hpp"

namespace perfbench {
namespace {

using bsoap::Error;
using bsoap::ErrorCode;
using bsoap::Result;
using bsoap::Rng;
using bsoap::soap::Param;
using bsoap::soap::RpcCall;
using bsoap::soap::Value;
using bsoap::soap::ValueKind;

constexpr const char* kNamespace = "urn:perfbench";

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// A double in [0, 1) that serializes to exactly 17 characters
/// ("0." + 15 digits): the fixed-width value of every mix.
double fraction17(Rng& rng) {
  for (;;) {
    char text[17] = {'0', '.'};
    for (int i = 2; i < 17; ++i) {
      text[i] = static_cast<char>('0' + rng.next_below(10));
    }
    // Nonzero last digit, so no shorter decimal names the same double.
    text[16] = static_cast<char>('1' + rng.next_below(9));
    Result<double> v = bsoap::textconv::parse_double({text, sizeof text});
    if (v.ok() && bsoap::textconv::serialized_length_double(v.value()) == 17) {
      return v.value();
    }
  }
}

std::vector<double> fractions17(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = fraction17(rng);
  return out;
}

Error bad_call(const char* what) {
  return Error{ErrorCode::kInvalidArgument, what};
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// ---------------------------------------------------------------------------
// patch_upload: the paper's steady state with the whole differential stack.

constexpr std::size_t kPutValues = 10000;
/// Every kShiftEvery-th request rewrites kShiftValues values at
/// kShiftChars instead of 17: expansions, so the client shifts, re-offers
/// the full body and the server full-parses it. A widened value keeps its
/// width from then on: shrinking it back would move its close tag and
/// demote that patch to a full parse, a second slow path at a share that
/// grows with every shift. The open loop runs without shifts (see
/// Stream::set_steady_only).
constexpr std::uint64_t kShiftEvery = 400;
constexpr std::size_t kShiftValues = 10;
constexpr int kShiftChars = 20;

double wide_value(Rng& rng) {
  return bsoap::soap::double_with_serialized_length(rng, kShiftChars);
}

class PatchUpload final : public Workload {
 public:
  PatchUpload(std::uint64_t seed, int connections) {
    for (int i = 0; i < connections; ++i) {
      auto slot = std::make_unique<Slot>(mix(seed, 1000 + i));
      std::vector<double> data = fractions17(kPutValues, mix(seed, i));
      slot->marker = data[0];
      slot->call.method = "put";
      slot->call.service_namespace = kNamespace;
      slot->call.params.push_back(
          Param{"data", Value::from_double_array(std::move(data))});
      // Offset the two connections' shift requests from each other.
      slot->sent = static_cast<std::uint64_t>(i) * (kShiftEvery / 2);
      slots_.push_back(std::move(slot));
    }
  }

  bsoap::core::BsoapClientConfig client_config() const override {
    return bsoap::core::BsoapClientConfig{}.with_diffwire(true).with_compression(
        bsoap::http::ContentCoding::kDeflatePreset);
  }

  std::unique_ptr<Stream> open_stream(int index) override {
    return std::make_unique<PutStream>(
        *slots_.at(static_cast<std::size_t>(index)));
  }

  Result<Value> handle(const RpcCall& call, Tracer* tracer) override {
    if (call.params.size() != 1 ||
        call.params[0].value.kind() != ValueKind::kDoubleArray ||
        call.params[0].value.doubles().empty()) {
      return bad_call("put(data:double[]) expected");
    }
    const std::int64_t start = tracer != nullptr ? now_ns() : 0;
    const std::vector<double>& got = call.params[0].value.doubles();
    // The call carries only the array (a scalar parameter would keep the
    // server off its differential parse), so the sender is found by the
    // never-rewritten first value.
    Slot* slot = nullptr;
    for (const auto& s : slots_) {
      if (same_bits(s->marker, got[0])) slot = s.get();
    }
    std::int32_t mismatches = static_cast<std::int32_t>(got.size());
    if (slot != nullptr) {
      // Pairs with the release in next_call(): the values the client wrote
      // before sending are visible here.
      (void)slot->published.load(std::memory_order_acquire);
      const std::vector<double>& sent = slot->call.params[0].value.doubles();
      if (got.size() == sent.size()) {
        mismatches = 0;
        if (std::memcmp(got.data(), sent.data(),
                        got.size() * sizeof(double)) != 0) {
          for (std::size_t i = 0; i < got.size(); ++i) {
            if (!same_bits(got[i], sent[i])) ++mismatches;
          }
        }
      }
    }
    if (tracer != nullptr) tracer->record(Span::kVerify, start, now_ns());
    return Value::from_int(mismatches);
  }

  void check_regime(const RegimeCounters& c,
                    std::vector<std::string>* flags) const override {
    const double patch = share(c.send.patch_sends, c.requests);
    const double replay = share(c.send.patch_replays, c.requests);
    // The mix: all but 1 in kShiftEvery requests can cross as patch frames,
    // 20% of them as header-only replays; the rest shift and re-offer.
    if (patch < 0.99) {
      flags->push_back("patch frames " + std::to_string(patch) +
                       " of requests, mix implies 0.9975");
    }
    if (replay < 0.15 || replay > 0.25) {
      flags->push_back("replays " + std::to_string(replay) +
                       " of requests, mix implies 0.20");
    }
    if (c.client_nacks != 0 || c.server.patch_nacks != 0) {
      flags->push_back("diff-wire NACKs: client " +
                       std::to_string(c.client_nacks) + ", server " +
                       std::to_string(c.server.patch_nacks));
    }
    if (c.requests >= kShiftEvery && c.send.partial_match == 0) {
      flags->push_back("no shifting (partial structural) sends");
    }
    if (c.server.deser_fast_parses == 0) {
      flags->push_back("server made no differential fast parses");
    }
  }

 private:
  struct Slot {
    explicit Slot(std::uint64_t seed) : rng(seed) {}
    RpcCall call;
    double marker = 0;  ///< data[0], identifies the connection
    std::vector<bool> wide = std::vector<bool>(kPutValues, false);
    Rng rng;
    std::uint64_t sent = 0;
    std::atomic<std::uint64_t> published{0};
  };

  class PutStream final : public Stream {
   public:
    explicit PutStream(Slot& slot) : slot_(slot) {}

    const RpcCall& next_call() override {
      slot_.sent += 1;
      if (!steady_only_ && slot_.sent % kShiftEvery == 0) {
        rewrite(kShiftValues, true);
      } else {
        // 20% replays, 60% at 1 per mille dirty, 20% at 1% dirty.
        const std::uint64_t draw = slot_.rng.next_below(10);
        if (draw >= 8) {
          rewrite(kPutValues / 100, false);
        } else if (draw >= 2) {
          rewrite(kPutValues / 1000, false);
        }
      }
      slot_.published.store(slot_.sent, std::memory_order_release);
      return slot_.call;
    }

    bool check(const Value& result) override {
      return result.kind() == ValueKind::kInt32 && result.as_int() == 0;
    }

    void set_steady_only(bool on) override { steady_only_ = on; }

   private:
    /// Rewrites `count` values at random positions other than the marker;
    /// `widen` makes them 20 characters wide for good.
    void rewrite(std::size_t count, bool widen) {
      std::vector<double>& data = slot_.call.params[0].value.doubles();
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t at = 1 + slot_.rng.next_below(data.size() - 1);
        if (widen) slot_.wide[at] = true;
        data[at] =
            slot_.wide[at] ? wide_value(slot_.rng) : fraction17(slot_.rng);
      }
    }

    Slot& slot_;
    bool steady_only_ = false;
  };

  std::vector<std::unique_ptr<Slot>> slots_;
};

// ---------------------------------------------------------------------------
// small_rpc: the smallest messages; per-request overhead dominates.

constexpr std::size_t kTagChars = 16;

class SmallRpc final : public Workload {
 public:
  explicit SmallRpc(std::uint64_t seed) : seed_(seed) {}

  std::unique_ptr<Stream> open_stream(int index) override {
    return std::make_unique<EchoStream>(mix(seed_, 500 + index));
  }

  Result<Value> handle(const RpcCall& call, Tracer* tracer) override {
    (void)tracer;
    if (call.params.size() != 3 ||
        call.params[0].value.kind() != ValueKind::kInt32 ||
        call.params[1].value.kind() != ValueKind::kDouble ||
        call.params[2].value.kind() != ValueKind::kString) {
      return bad_call("echo(seq:int, x:double, tag:string) expected");
    }
    Value out = Value::make_struct();
    out.add_member("seq", call.params[0].value);
    out.add_member("x", call.params[1].value);
    out.add_member("tag", call.params[2].value);
    return out;
  }

  void check_regime(const RegimeCounters& c,
                    std::vector<std::string>* flags) const override {
    const double reuse =
        share(c.server.response_diff_hits(), c.server.responses_total());
    if (reuse < 0.9) {
      flags->push_back("response-template reuse " + std::to_string(reuse) +
                       ", expected every response after warm-up");
    }
    if (c.send.patch_sends != 0 || c.server.patch_sends != 0) {
      flags->push_back("diff-wire engaged on a plain client");
    }
  }

 private:
  class EchoStream final : public Stream {
   public:
    explicit EchoStream(std::uint64_t seed) : rng_(seed) {
      std::string tag(kTagChars, 'a');
      for (char& ch : tag) ch = static_cast<char>('a' + rng_.next_below(26));
      call_.method = "echo";
      call_.service_namespace = kNamespace;
      call_.params.push_back(Param{"seq", Value::from_int(0)});
      call_.params.push_back(Param{"x", Value::from_double(0)});
      call_.params.push_back(Param{"tag", Value::from_string(std::move(tag))});
    }

    const RpcCall& next_call() override {
      seq_ += 1;
      x_ = fraction17(rng_);
      call_.params[0].value = Value::from_int(seq_);
      call_.params[1].value = Value::from_double(x_);
      return call_;
    }

    bool check(const Value& result) override {
      if (result.kind() != ValueKind::kStruct) return false;
      const auto& m = result.members();
      return m.size() == 3 && m[0].name == "seq" && m[1].name == "x" &&
             m[2].name == "tag" && m[0].value.kind() == ValueKind::kInt32 &&
             m[0].value.as_int() == seq_ &&
             m[1].value.kind() == ValueKind::kDouble &&
             same_bits(m[1].value.as_double(), x_) &&
             m[2].value.kind() == ValueKind::kString &&
             m[2].value.as_string() == call_.params[2].value.as_string();
    }

   private:
    Rng rng_;
    RpcCall call_;
    std::int32_t seq_ = 0;
    double x_ = 0;
  };

  std::uint64_t seed_;
};

}  // namespace

const WorkloadInfo* find_workload(std::string_view name) {
  static const WorkloadInfo table[] = {
      {"patch_upload", 300.0,
       [](std::uint64_t seed, int connections) -> std::unique_ptr<Workload> {
         return std::make_unique<PatchUpload>(seed, connections);
       }},
      {"small_rpc", 8000.0,
       [](std::uint64_t seed, int) -> std::unique_ptr<Workload> {
         return std::make_unique<SmallRpc>(seed);
       }},
  };
  for (const WorkloadInfo& w : table) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
