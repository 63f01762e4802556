#include "diffwire/wire_format.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "http/http_message.hpp"

namespace bsoap::diffwire {

namespace {

void append_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t read_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint64_t read_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

// Block digest constants: the xxHash64 primes.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;

/// Little-endian 8-byte load, so both ends digest alike on any host.
std::uint64_t load_le64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

std::uint64_t mix_round(std::uint64_t acc, std::uint64_t word) {
  acc += word * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

}  // namespace

std::uint64_t block_digest(std::uint32_t index, const char* data,
                           std::size_t n) noexcept {
  const std::uint64_t seed = (static_cast<std::uint64_t>(index) << 32) | n;
  const char* p = data;
  const char* const end = data + n;
  // Four independent lanes keep the multiplier pipeline busy.
  std::uint64_t a = seed + kPrime1 + kPrime2;
  std::uint64_t b = seed + kPrime2;
  std::uint64_t c = seed;
  std::uint64_t d = seed - kPrime1;
  for (; end - p >= 32; p += 32) {
    a = mix_round(a, load_le64(p));
    b = mix_round(b, load_le64(p + 8));
    c = mix_round(c, load_le64(p + 16));
    d = mix_round(d, load_le64(p + 24));
  }
  std::uint64_t h =
      std::rotl(a, 1) + std::rotl(b, 7) + std::rotl(c, 12) + std::rotl(d, 18);
  for (; end - p >= 8; p += 8) {
    h ^= mix_round(0, load_le64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (p < end) {
    std::uint64_t tail = 0;
    for (int shift = 0; p < end; ++p, shift += 8) {
      tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(*p))
              << shift;
    }
    h ^= mix_round(0, tail);
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  return h ^ (h >> 32);
}

std::uint64_t body_root(std::string_view body) noexcept {
  std::uint64_t root = 0;
  for (std::size_t at = 0, i = 0; at < body.size(); at += kBlockSize, ++i) {
    root += block_digest(static_cast<std::uint32_t>(i), body.data() + at,
                         std::min(kBlockSize, body.size() - at));
  }
  return root;
}

void BlockDigests::reset(std::size_t body_len) {
  digests_.assign((body_len + kBlockSize - 1) / kBlockSize, 0);
  root_ = 0;
  body_len_ = body_len;
}

void BlockDigests::assign(std::string_view body) {
  reset(body.size());
  for (std::size_t i = 0; i < digests_.size(); ++i) rehash(body, i);
}

void BlockDigests::rehash(std::string_view body, std::size_t index) noexcept {
  const std::size_t at = index * kBlockSize;
  set(index, block_digest(static_cast<std::uint32_t>(index), body.data() + at,
                          std::min(kBlockSize, body.size() - at)));
}

std::string format_template_id(std::uint64_t id) {
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[id & 0xf];
    id >>= 4;
  }
  return out;
}

bool parse_template_id(std::string_view text, std::uint64_t* id) {
  if (text.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *id = v;
  return true;
}

void append_patch_header(std::string& out, const PatchHeader& header) {
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(header.version));
  out.push_back(static_cast<char>(header.flags));
  append_u16(out, 0);  // reserved
  append_u64(out, header.template_id);
  append_u32(out, header.epoch);
  append_u32(out, header.run_count);
  append_u32(out, header.body_len);
  append_u64(out, header.checksum);
}

void append_run_header(std::string& out, std::uint32_t offset,
                       std::uint32_t length) {
  append_u32(out, offset);
  append_u32(out, length);
}

Result<PatchFrame> decode_patch(std::string_view body) {
  if (body.size() < kFrameHeaderSize) {
    return Error{ErrorCode::kProtocolError, "patch frame truncated"};
  }
  const char* p = body.data();
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return Error{ErrorCode::kProtocolError, "patch frame bad magic"};
  }
  PatchFrame frame;
  frame.header.version = static_cast<std::uint8_t>(p[4]);
  if (frame.header.version != kVersion) {
    return Error{ErrorCode::kProtocolError,
                 "patch frame version " +
                     std::to_string(frame.header.version) + " unsupported"};
  }
  frame.header.flags = static_cast<std::uint8_t>(p[5]);
  if ((frame.header.flags & ~kFlagReplay) != 0) {
    return Error{ErrorCode::kProtocolError, "patch frame unknown flags"};
  }
  if (p[6] != 0 || p[7] != 0) {
    return Error{ErrorCode::kProtocolError, "patch frame reserved bytes set"};
  }
  frame.header.template_id = read_u64(p + 8);
  frame.header.epoch = read_u32(p + 16);
  frame.header.run_count = read_u32(p + 20);
  frame.header.body_len = read_u32(p + 24);
  frame.header.checksum = read_u64(p + 28);
  if (frame.header.replay() != (frame.header.run_count == 0)) {
    return Error{ErrorCode::kProtocolError,
                 "patch frame replay flag disagrees with run count"};
  }

  std::size_t pos = kFrameHeaderSize;
  // Every run takes at least a run header, so a lying run_count cannot make
  // this reservation outgrow the frame.
  frame.runs.reserve(std::min<std::size_t>(
      frame.header.run_count,
      (body.size() - kFrameHeaderSize) / kRunHeaderSize));
  for (std::uint32_t i = 0; i < frame.header.run_count; ++i) {
    if (body.size() - pos < kRunHeaderSize) {
      return Error{ErrorCode::kProtocolError, "patch run header truncated"};
    }
    PatchRun run;
    run.offset = read_u32(p + pos);
    run.length = read_u32(p + pos + 4);
    pos += kRunHeaderSize;
    if (body.size() - pos < run.length) {
      return Error{ErrorCode::kProtocolError, "patch run payload truncated"};
    }
    run.data = p + pos;
    pos += run.length;
    frame.runs.push_back(run);
  }
  if (pos != body.size()) {
    return Error{ErrorCode::kProtocolError,
                 "patch frame has trailing bytes"};
  }
  return frame;
}

std::string render_nack_response(std::uint64_t template_id,
                                 std::string_view reason) {
  std::string body = "diff-wire nack: ";
  body.append(reason);
  body.push_back('\n');
  http::HttpResponse response;
  response.status = kNackStatus;
  response.reason = "Conflict";
  response.headers.push_back(http::Header{kDiffHeader, kNackValue});
  response.headers.push_back(
      http::Header{kTemplateHeader, format_template_id(template_id)});
  response.headers.push_back(http::Header{"Content-Type", "text/plain"});
  response.headers.push_back(
      http::Header{"Content-Length", std::to_string(body.size())});
  return http::serialize_response_head(response) + body;
}

}  // namespace bsoap::diffwire
