#include "compress/deflate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace bsoap::compress {
namespace {

// ---------------------------------------------------------------------------
// Shared RFC 1951 tables.
// ---------------------------------------------------------------------------

constexpr int kLengthBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11, 13,
                                 15, 17, 19, 23, 27, 31, 35, 43, 51, 59,
                                 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr int kLengthExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                  2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr int kDistBase[30] = {1,    2,    3,    4,    5,    7,    9,    13,
                               17,   25,   33,   49,   65,   97,   129,  193,
                               257,  385,  513,  769,  1025, 1537, 2049, 3073,
                               4097, 6145, 8193, 12289, 16385, 24577};
constexpr int kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

constexpr std::size_t kWindowSize = 32 * 1024;
constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;

// ---------------------------------------------------------------------------
// Bit IO (DEFLATE packs bits LSB-first).
// ---------------------------------------------------------------------------

class BitWriter {
 public:
  /// Appends to `out`.
  explicit BitWriter(std::string& out) : out_(out) {}

  /// Appends the low `count` (≤ 32) bits of `value`, least significant
  /// first, flushing whole 32-bit words as they fill.
  void put(std::uint32_t value, int count) {
    bits_ |= static_cast<std::uint64_t>(value) << nbits_;
    nbits_ += count;
    if (nbits_ >= 32) {
      char word[4];
      for (int i = 0; i < 4; ++i) {
        word[i] = static_cast<char>((bits_ >> (8 * i)) & 0xFF);
      }
      out_.append(word, 4);
      bits_ >>= 32;
      nbits_ -= 32;
    }
  }

  /// Flushes the pending bits, zero-padding the last byte.
  void finish() {
    while (nbits_ > 0) {
      out_ += static_cast<char>(bits_ & 0xFF);
      bits_ >>= 8;
      nbits_ = nbits_ > 8 ? nbits_ - 8 : 0;
    }
  }

 private:
  std::string& out_;
  std::uint64_t bits_ = 0;
  int nbits_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  /// Buffers whole input bytes until at least `count` (≤ 56) bits are held
  /// or the input ends; returns the number of bits held.
  int fill(int count) {
    while (nbits_ < count && pos_ < data_.size()) {
      bits_ |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(data_[pos_++]))
               << nbits_;
      nbits_ += 8;
    }
    return nbits_;
  }

  /// The next `count` buffered bits, least significant first; bits past
  /// the end of input read as zero.
  std::uint32_t peek(int count) const {
    return static_cast<std::uint32_t>(bits_ & ((1ull << count) - 1));
  }

  /// Consumes `count` bits (≤ the number held).
  void drop(int count) {
    bits_ >>= count;
    nbits_ -= count;
  }

  /// Reads `count` bits, least significant first; fails at end of input.
  Result<std::uint32_t> take(int count) {
    if (fill(count) < count) {
      return Error{ErrorCode::kParseError, "deflate: out of input bits"};
    }
    const std::uint32_t value = peek(count);
    drop(count);
    return value;
  }

  void align_to_byte() {
    const int drop = nbits_ % 8;
    bits_ >>= drop;
    nbits_ -= drop;
  }

  /// Copies `n` bytes (must be byte-aligned buffer-wise: any whole bytes
  /// still in the bit buffer are consumed first).
  Status read_bytes(char* out, std::size_t n) {
    while (n > 0 && nbits_ >= 8) {
      *out++ = static_cast<char>(bits_ & 0xFF);
      bits_ >>= 8;
      nbits_ -= 8;
      --n;
    }
    if (n > data_.size() - pos_) {
      return Error{ErrorCode::kParseError, "deflate: truncated stored block"};
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status{};
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  std::uint64_t bits_ = 0;
  int nbits_ = 0;
};

// ---------------------------------------------------------------------------
// Fixed Huffman code for literals/lengths (RFC 1951 3.2.6).
// ---------------------------------------------------------------------------

struct FixedCode {
  std::uint32_t code;
  int length;
};

FixedCode fixed_literal_code(int symbol) {
  if (symbol < 144) return {static_cast<std::uint32_t>(0x30 + symbol), 8};
  if (symbol < 256) {
    return {static_cast<std::uint32_t>(0x190 + symbol - 144), 9};
  }
  if (symbol < 280) return {static_cast<std::uint32_t>(symbol - 256), 7};
  return {static_cast<std::uint32_t>(0xC0 + symbol - 280), 8};
}

/// A fixed-Huffman code ready for BitWriter::put: Huffman codes are packed
/// from their most significant bit, so `bits` holds the code bit-reversed,
/// followed by any extra bits.
struct PackedCode {
  std::uint32_t bits = 0;
  int count = 0;
};

PackedCode reversed(std::uint32_t code, int length) {
  std::uint32_t bits = 0;
  for (int i = 0; i < length; ++i) bits = (bits << 1) | ((code >> i) & 1);
  return {bits, length};
}

/// Literal/length symbol 0..287 -> its packed fixed code.
const std::array<PackedCode, 288>& literal_codes() {
  static const std::array<PackedCode, 288> table = [] {
    std::array<PackedCode, 288> t{};
    for (int s = 0; s < 288; ++s) {
      const FixedCode fc = fixed_literal_code(s);
      t[static_cast<std::size_t>(s)] = reversed(fc.code, fc.length);
    }
    return t;
  }();
  return table;
}

/// Match length 3..258 -> length symbol code plus extra bits, packed.
const std::array<PackedCode, kMaxMatch + 1>& length_codes() {
  static const std::array<PackedCode, kMaxMatch + 1> table = [] {
    std::array<PackedCode, kMaxMatch + 1> t{};
    for (int length = kMinMatch; length <= kMaxMatch; ++length) {
      int code = 28;
      for (int i = 0; i < 28; ++i) {
        if (length < kLengthBase[i + 1]) {
          code = i;
          break;
        }
      }
      if (length == kMaxMatch) code = 28;
      PackedCode pc = literal_codes()[static_cast<std::size_t>(257 + code)];
      pc.bits |= static_cast<std::uint32_t>(length - kLengthBase[code])
                 << pc.count;
      pc.count += kLengthExtra[code];
      t[static_cast<std::size_t>(length)] = pc;
    }
    return t;
  }();
  return table;
}

/// Distance 1..32768 -> its distance code 0..29.
int distance_code(int distance) {
  const auto x = static_cast<unsigned>(distance - 1);
  if (x < 4) return static_cast<int>(x);
  const int b = std::bit_width(x) - 1;  // floor(log2 x), ≥ 2
  return 2 * b + static_cast<int>((x >> (b - 1)) & 1);
}

void encode_match(BitWriter* out, int length, int distance) {
  const PackedCode& lc = length_codes()[static_cast<std::size_t>(length)];
  out->put(lc.bits, lc.count);
  // Distance codes are a flat 5 bits in the fixed code.
  const int code = distance_code(distance);
  const PackedCode dc = reversed(static_cast<std::uint32_t>(code), 5);
  out->put(dc.bits | (static_cast<std::uint32_t>(distance - kDistBase[code])
                      << 5),
           5 + kDistExtra[code]);
}

void encode_literal(BitWriter* out, int symbol) {
  const PackedCode& pc = literal_codes()[static_cast<std::size_t>(symbol)];
  out->put(pc.bits, pc.count);
}

// ---------------------------------------------------------------------------
// Compressor: greedy LZ77 with hash chains, one fixed-Huffman block.
// ---------------------------------------------------------------------------

constexpr int kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;

/// Match-finder tuning, chosen by whether the stream has a preset
/// dictionary. Plain streams (mostly small SOAP responses) hash kMinMatch
/// = 3 bytes per chain position and walk up to 128 candidates: their
/// repeats are short and near, and a 490-byte `putResponse` envelope codes
/// to 254 zlib bytes this way against 264 with the preset tuning. Preset
/// streams match SOAP text against a 32 KiB dictionary of the same text,
/// where 3-byte chains (digits, tags) are many times longer to walk and a
/// 3-byte match at a long distance costs about as many fixed-Huffman bits
/// as three literals; they hash 4 bytes and walk up to 32 candidates, which
/// codes a 313 KB re-offer 0.6% smaller in 5.5 ms instead of 13.3 ms, and a
/// 1%-dirty patch frame in 27 µs instead of 66 µs (x86-64, gcc -O2).
struct MatchTuning {
  std::size_t hash_bytes;
  int max_chain;
};
constexpr MatchTuning kPlainTuning{3, 128};
constexpr MatchTuning kPresetTuning{4, 32};

/// Multiplicative hash over the next HashBytes (3 or 4) bytes.
template <std::size_t HashBytes>
std::uint32_t hash_at(const unsigned char* p) {
  static_assert(HashBytes == 3 || HashBytes == 4);
  std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                    (static_cast<std::uint32_t>(p[1]) << 8) |
                    (static_cast<std::uint32_t>(p[2]) << 16);
  if constexpr (HashBytes == 4) v |= static_cast<std::uint32_t>(p[3]) << 24;
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

/// Little-endian 8-byte load (match lengths count matching bytes in
/// address order on any host).
std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Length of the common prefix of `a` and `b`, at most `max_length`; both
/// must be readable for `max_length` bytes.
std::size_t match_length(const unsigned char* a, const unsigned char* b,
                         std::size_t max_length) {
  std::size_t length = 0;
  for (; length + 8 <= max_length; length += 8) {
    const std::uint64_t diff = load_le64(a + length) ^ load_le64(b + length);
    if (diff != 0) {
      return length + static_cast<std::size_t>(std::countr_zero(diff) / 8);
    }
  }
  while (length < max_length && a[length] == b[length]) ++length;
  return length;
}

/// Inserts position `k` into the hash chains.
template <std::size_t HashBytes>
void insert_position(const unsigned char* data, std::size_t k,
                     std::vector<std::int32_t>& head,
                     std::vector<std::int32_t>& prev) {
  const std::uint32_t h = hash_at<HashBytes>(data + k);
  prev[k] = head[h];
  head[h] = static_cast<std::int32_t>(k);
}

/// Emits one fixed-Huffman DEFLATE block over data[start..n). Positions
/// before `start` are history only (a preset dictionary): they are inserted
/// into the hash chains so matches can reach back into them, but produce no
/// output themselves. Positions before `primed` must already be in the
/// chains; `prev` must be sized n. Every position whose Tuning.hash_bytes
/// bytes lie in [primed, n) is inserted exactly once, in ascending order.
template <MatchTuning Tuning>
void deflate_fixed_block(BitWriter* out, const unsigned char* data,
                         std::size_t n, std::size_t start, std::size_t primed,
                         std::vector<std::int32_t>& head,
                         std::vector<std::int32_t>& prev) {
  out->put(1, 1);  // BFINAL
  out->put(1, 2);  // BTYPE = 01 (fixed Huffman)

  constexpr std::size_t kHashBytes = Tuning.hash_bytes;
  for (std::size_t k = primed; k + kHashBytes <= n && k < start; ++k) {
    insert_position<kHashBytes>(data, k, head, prev);
  }

  std::size_t i = start;
  while (i < n) {
    std::size_t best_length = 0;
    int best_distance = 0;
    if (i + kHashBytes <= n) {
      const std::uint32_t h = hash_at<kHashBytes>(data + i);
      std::int32_t candidate = head[h];
      int chain = Tuning.max_chain;
      const std::size_t max_length =
          std::min<std::size_t>(kMaxMatch, n - i);
      while (candidate >= 0 && chain-- > 0 &&
             i - static_cast<std::size_t>(candidate) <= kWindowSize) {
        const unsigned char* a = data + candidate;
        const unsigned char* b = data + i;
        // A candidate only wins by matching beyond best_length, so the byte
        // there rejects most candidates with one compare; the chosen match
        // is the same as a full comparison of every candidate would pick.
        if (best_length == 0 || a[best_length] == b[best_length]) {
          const std::size_t length = match_length(a, b, max_length);
          if (length > best_length) {
            best_length = length;
            best_distance =
                static_cast<int>(i - static_cast<std::size_t>(candidate));
            if (best_length == max_length) break;
          }
        }
        candidate = prev[static_cast<std::size_t>(candidate)];
      }
      // Insert the current position into the chain.
      prev[i] = head[h];
      head[h] = static_cast<std::int32_t>(i);
    }

    if (best_length >= static_cast<std::size_t>(kMinMatch)) {
      encode_match(out, static_cast<int>(best_length), best_distance);
      // Insert the skipped positions so later matches can reference them.
      const std::size_t end = i + best_length;
      for (std::size_t k = i + 1; k < end && k + kHashBytes <= n; ++k) {
        insert_position<kHashBytes>(data, k, head, prev);
      }
      i = end;
    } else {
      encode_literal(out, data[i]);
      ++i;
    }
  }

  encode_literal(out, 256);  // end of block
}

/// Undoes deflate_fixed_block's chain insertions of positions ≥ `primed`.
/// Positions are inserted in ascending order and each records the head it
/// replaced in prev, so replaying them in descending order restores every
/// head to its pre-call value. O(inserted positions), independent loads.
template <std::size_t HashBytes>
void restore_heads(const unsigned char* data, std::size_t n,
                   std::size_t primed, std::vector<std::int32_t>& head,
                   const std::vector<std::int32_t>& prev) {
  if (n < HashBytes) return;
  for (std::size_t k = n - HashBytes + 1; k-- > primed;) {
    head[hash_at<HashBytes>(data + k)] = prev[k];
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Adler-32 (RFC 1950).
// ---------------------------------------------------------------------------

std::uint32_t adler32(std::string_view data, std::uint32_t seed) noexcept {
  constexpr std::uint32_t kMod = 65521;
  std::uint32_t a = seed & 0xFFFF;
  std::uint32_t b = (seed >> 16) & 0xFFFF;
  std::size_t i = 0;
  while (i < data.size()) {
    // 5552 is the largest n with 255*n*(n+1)/2 + (n+1)*(kMod-1) < 2^32.
    const std::size_t chunk = std::min<std::size_t>(5552, data.size() - i);
    for (std::size_t k = 0; k < chunk; ++k) {
      a += static_cast<unsigned char>(data[i + k]);
      b += a;
    }
    a %= kMod;
    b %= kMod;
    i += chunk;
  }
  return (b << 16) | a;
}

// ---------------------------------------------------------------------------
// DeflateStream: reusable compressor with preset history.
// ---------------------------------------------------------------------------

PresetDictionary::PresetDictionary(std::string_view dict) {
  if (dict.size() > kWindowSize) dict = dict.substr(dict.size() - kWindowSize);
  bytes_.assign(dict);
  id_ = bytes_.empty() ? 0 : adler32(bytes_);
}

void DeflateStream::preset(std::string_view dict) {
  if (dict.size() > kWindowSize) {
    dict = dict.substr(dict.size() - kWindowSize);
  }
  if (!head_.empty() && dict.size() == dict_size_ &&
      (dict.empty() ||
       std::memcmp(dict.data(), work_.data(), dict_size_) == 0)) {
    return;  // already primed with these bytes
  }
  work_.assign(dict);
  dict_size_ = dict.size();
  dict_id_ = dict.empty() ? 0 : adler32(dict);
  constexpr std::size_t kHashBytes = kPresetTuning.hash_bytes;
  primed_ = dict_size_ >= kHashBytes ? dict_size_ - (kHashBytes - 1) : 0;
  head_.assign(kHashSize, -1);
  prev_.resize(dict_size_);
  const auto* data = reinterpret_cast<const unsigned char*>(work_.data());
  for (std::size_t k = 0; k < primed_; ++k) {
    insert_position<kHashBytes>(data, k, head_, prev_);
  }
}

void DeflateStream::compress(std::string_view input, std::string* out) {
  if (head_.empty()) head_.assign(kHashSize, -1);
  const unsigned char* data;
  std::size_t n;
  if (dict_size_ == 0) {
    data = reinterpret_cast<const unsigned char*>(input.data());
    n = input.size();
  } else {
    // Dictionary and input must be contiguous so matches can span the seam.
    work_.resize(dict_size_);
    work_.append(input);
    data = reinterpret_cast<const unsigned char*>(work_.data());
    n = work_.size();
  }
  // Sized geometrically: preset() shrinks prev_ to the dictionary, and an
  // exact regrow here would reallocate whenever the input grew a little.
  if (prev_.capacity() < n) prev_.reserve(std::max(n, 2 * prev_.capacity()));
  prev_.resize(n);

  BitWriter writer(*out);
  if (dict_size_ == 0) {
    deflate_fixed_block<kPlainTuning>(&writer, data, n, 0, 0, head_, prev_);
    restore_heads<kPlainTuning.hash_bytes>(data, n, 0, head_, prev_);
  } else {
    deflate_fixed_block<kPresetTuning>(&writer, data, n, dict_size_, primed_,
                                       head_, prev_);
    restore_heads<kPresetTuning.hash_bytes>(data, n, primed_, head_, prev_);
  }
  writer.finish();
}

std::string deflate(std::string_view input) {
  DeflateStream stream;
  std::string out;
  stream.compress(input, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Inflater: stored, fixed and dynamic Huffman blocks ("puff"-style canonical
// decoding).
// ---------------------------------------------------------------------------

namespace {

struct HuffDecoder {
  std::array<int, 16> counts{};     // number of codes of each length
  std::vector<int> symbols;         // symbols ordered by (length, symbol)
  /// Codes of up to kFastBits bits, indexed by the next kFastBits input
  /// bits: (symbol << 4) | code length, or 0 where a longer code starts.
  static constexpr int kFastBits = 9;
  std::vector<std::uint16_t> fast;

  /// Builds from per-symbol code lengths; returns false on an over-
  /// subscribed code.
  bool build(const std::vector<int>& lengths) {
    counts.fill(0);
    for (const int len : lengths) {
      if (len < 0 || len > 15) return false;
      ++counts[static_cast<std::size_t>(len)];
    }
    counts[0] = 0;
    int left = 1;
    for (int len = 1; len <= 15; ++len) {
      left <<= 1;
      left -= counts[static_cast<std::size_t>(len)];
      if (left < 0) return false;  // over-subscribed
    }
    std::array<int, 16> offsets{};
    for (int len = 1; len < 15; ++len) {
      offsets[static_cast<std::size_t>(len + 1)] =
          offsets[static_cast<std::size_t>(len)] +
          counts[static_cast<std::size_t>(len)];
    }
    symbols.assign(lengths.size(), 0);
    for (std::size_t symbol = 0; symbol < lengths.size(); ++symbol) {
      if (lengths[symbol] != 0) {
        symbols[static_cast<std::size_t>(
            offsets[static_cast<std::size_t>(lengths[symbol])]++)] =
            static_cast<int>(symbol);
      }
    }
    // Canonical codes, first code of each length (RFC 1951 3.2.2); each
    // short code fills every table slot whose low bits are its reversal.
    fast.assign(std::size_t{1} << kFastBits, 0);
    std::array<std::uint32_t, 16> next{};
    std::uint32_t code = 0;
    for (int len = 1; len <= 15; ++len) {
      code = (code + static_cast<std::uint32_t>(
                         counts[static_cast<std::size_t>(len - 1)]))
             << 1;
      next[static_cast<std::size_t>(len)] = code;
    }
    for (std::size_t symbol = 0; symbol < lengths.size(); ++symbol) {
      const int len = lengths[symbol];
      if (len == 0) continue;
      const std::uint32_t c = next[static_cast<std::size_t>(len)]++;
      if (len > kFastBits) continue;
      std::uint32_t rev = 0;
      for (int i = 0; i < len; ++i) rev = (rev << 1) | ((c >> i) & 1);
      for (std::uint32_t fill = rev; fill < fast.size();
           fill += std::uint32_t{1} << len) {
        fast[fill] = static_cast<std::uint16_t>((symbol << 4) |
                                                static_cast<unsigned>(len));
      }
    }
    return true;
  }

  Result<int> decode(BitReader* in) const {
    const int held = in->fill(15);
    const std::uint16_t entry = fast[in->peek(kFastBits)];
    if (entry != 0 && (entry & 15) <= held) {
      in->drop(entry & 15);
      return entry >> 4;
    }
    // A code longer than the table, or input running out: canonical
    // decoding one bit at a time.
    const std::uint32_t bits = in->peek(15);
    int code = 0;
    int first = 0;
    int index = 0;
    for (int len = 1; len <= 15; ++len) {
      if (len > held) {
        return Error{ErrorCode::kParseError, "deflate: out of input bits"};
      }
      code |= static_cast<int>((bits >> (len - 1)) & 1);
      const int count = counts[static_cast<std::size_t>(len)];
      if (code - first < count) {
        in->drop(len);
        return symbols[static_cast<std::size_t>(index + (code - first))];
      }
      index += count;
      first += count;
      first <<= 1;
      code <<= 1;
    }
    return Error{ErrorCode::kParseError, "deflate: invalid Huffman code"};
  }
};

const HuffDecoder& fixed_literal_decoder() {
  static const HuffDecoder decoder = [] {
    std::vector<int> lengths(288);
    for (int s = 0; s < 144; ++s) lengths[static_cast<std::size_t>(s)] = 8;
    for (int s = 144; s < 256; ++s) lengths[static_cast<std::size_t>(s)] = 9;
    for (int s = 256; s < 280; ++s) lengths[static_cast<std::size_t>(s)] = 7;
    for (int s = 280; s < 288; ++s) lengths[static_cast<std::size_t>(s)] = 8;
    HuffDecoder d;
    d.build(lengths);
    return d;
  }();
  return decoder;
}

const HuffDecoder& fixed_distance_decoder() {
  static const HuffDecoder decoder = [] {
    std::vector<int> lengths(30, 5);
    HuffDecoder d;
    d.build(lengths);
    return d;
  }();
  return decoder;
}

/// `dict` is the history before the stream's first output byte: a distance
/// reaching past the start of `out` reads from its tail, in place.
Status inflate_block(BitReader* in, const HuffDecoder& literals,
                     const HuffDecoder& distances, std::string_view dict,
                     std::string* out, std::size_t max_output) {
  for (;;) {
    Result<int> symbol = literals.decode(in);
    if (!symbol.ok()) return symbol.error();
    const int s = symbol.value();
    if (s < 256) {
      if (out->size() >= max_output) {
        return Error{ErrorCode::kOutOfRange, "deflate: output limit"};
      }
      *out += static_cast<char>(s);
      continue;
    }
    if (s == 256) return Status{};  // end of block
    if (s > 285) return Error{ErrorCode::kParseError, "deflate: bad length"};

    const int length_code = s - 257;
    Result<std::uint32_t> extra = in->take(kLengthExtra[length_code]);
    if (!extra.ok()) return extra.error();
    const int length = kLengthBase[length_code] + static_cast<int>(extra.value());

    Result<int> dist_symbol = distances.decode(in);
    if (!dist_symbol.ok()) return dist_symbol.error();
    if (dist_symbol.value() > 29) {
      return Error{ErrorCode::kParseError, "deflate: bad distance code"};
    }
    Result<std::uint32_t> dist_extra =
        in->take(kDistExtra[dist_symbol.value()]);
    if (!dist_extra.ok()) return dist_extra.error();
    const std::size_t distance =
        static_cast<std::size_t>(kDistBase[dist_symbol.value()]) +
        dist_extra.value();
    if (distance > dict.size() + out->size()) {
      return Error{ErrorCode::kParseError, "deflate: distance too far back"};
    }
    if (out->size() + static_cast<std::size_t>(length) > max_output) {
      return Error{ErrorCode::kOutOfRange, "deflate: output limit"};
    }
    // Byte-by-byte copy: overlapping copies (distance < length) must repeat.
    // `from` indexes the history dict ++ out.
    std::size_t from = dict.size() + out->size() - distance;
    for (int k = 0; k < length; ++k, ++from) {
      *out += from < dict.size() ? dict[from] : (*out)[from - dict.size()];
    }
  }
}

Status inflate_dynamic_header(BitReader* in, HuffDecoder* literals,
                              HuffDecoder* distances) {
  Result<std::uint32_t> hlit = in->take(5);
  if (!hlit.ok()) return hlit.error();
  Result<std::uint32_t> hdist = in->take(5);
  if (!hdist.ok()) return hdist.error();
  Result<std::uint32_t> hclen = in->take(4);
  if (!hclen.ok()) return hclen.error();
  const std::size_t nlit = 257 + hlit.value();
  const std::size_t ndist = 1 + hdist.value();
  const std::size_t ncode = 4 + hclen.value();
  if (nlit > 286 || ndist > 30) {
    return Error{ErrorCode::kParseError, "deflate: bad dynamic header"};
  }

  static constexpr int kOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                     11, 4, 12, 3, 13, 2, 14, 1, 15};
  std::vector<int> code_lengths(19, 0);
  for (std::size_t i = 0; i < ncode; ++i) {
    Result<std::uint32_t> len = in->take(3);
    if (!len.ok()) return len.error();
    code_lengths[static_cast<std::size_t>(kOrder[i])] =
        static_cast<int>(len.value());
  }
  HuffDecoder code_decoder;
  if (!code_decoder.build(code_lengths)) {
    return Error{ErrorCode::kParseError, "deflate: bad code-length code"};
  }

  std::vector<int> lengths;
  lengths.reserve(nlit + ndist);
  while (lengths.size() < nlit + ndist) {
    Result<int> symbol = code_decoder.decode(in);
    if (!symbol.ok()) return symbol.error();
    const int s = symbol.value();
    if (s < 16) {
      lengths.push_back(s);
    } else if (s == 16) {
      if (lengths.empty()) {
        return Error{ErrorCode::kParseError, "deflate: repeat with no prior"};
      }
      Result<std::uint32_t> rep = in->take(2);
      if (!rep.ok()) return rep.error();
      lengths.insert(lengths.end(), 3 + rep.value(), lengths.back());
    } else if (s == 17) {
      Result<std::uint32_t> rep = in->take(3);
      if (!rep.ok()) return rep.error();
      lengths.insert(lengths.end(), 3 + rep.value(), 0);
    } else {
      Result<std::uint32_t> rep = in->take(7);
      if (!rep.ok()) return rep.error();
      lengths.insert(lengths.end(), 11 + rep.value(), 0);
    }
  }
  if (lengths.size() != nlit + ndist) {
    return Error{ErrorCode::kParseError, "deflate: code lengths overflow"};
  }

  std::vector<int> lit_lengths(lengths.begin(),
                               lengths.begin() + static_cast<long>(nlit));
  std::vector<int> dist_lengths(lengths.begin() + static_cast<long>(nlit),
                                lengths.end());
  if (!literals->build(lit_lengths) || !distances->build(dist_lengths)) {
    return Error{ErrorCode::kParseError, "deflate: bad dynamic code"};
  }
  return Status{};
}

}  // namespace

namespace {

/// inflate() into `*out` (cleared first; its capacity is reused).
Status inflate_into(std::string_view input, std::size_t max_output,
                    std::string_view dict, std::string* out_ptr) {
  if (dict.size() > kWindowSize) {
    dict = dict.substr(dict.size() - kWindowSize);
  }
  BitReader in(input);
  // The dictionary is the back-reference window before the first output
  // byte, read in place; the output bound applies to the stream's own bytes.
  std::string& out = *out_ptr;
  out.clear();
  const std::size_t limit = max_output;
  for (;;) {
    Result<std::uint32_t> bfinal = in.take(1);
    if (!bfinal.ok()) return bfinal.error();
    Result<std::uint32_t> btype = in.take(2);
    if (!btype.ok()) return btype.error();

    switch (btype.value()) {
      case 0: {  // stored
        in.align_to_byte();
        char header[4];
        BSOAP_RETURN_IF_ERROR(in.read_bytes(header, 4));
        const std::uint16_t len =
            static_cast<std::uint16_t>(static_cast<unsigned char>(header[0]) |
                                       (static_cast<unsigned char>(header[1])
                                        << 8));
        const std::uint16_t nlen =
            static_cast<std::uint16_t>(static_cast<unsigned char>(header[2]) |
                                       (static_cast<unsigned char>(header[3])
                                        << 8));
        if (static_cast<std::uint16_t>(~len) != nlen) {
          return Error{ErrorCode::kParseError, "deflate: stored LEN/NLEN"};
        }
        if (out.size() + len > limit) {
          return Error{ErrorCode::kOutOfRange, "deflate: output limit"};
        }
        const std::size_t old = out.size();
        out.resize(old + len);
        BSOAP_RETURN_IF_ERROR(in.read_bytes(out.data() + old, len));
        break;
      }
      case 1:  // fixed Huffman
        BSOAP_RETURN_IF_ERROR(inflate_block(&in, fixed_literal_decoder(),
                                            fixed_distance_decoder(), dict,
                                            &out, limit));
        break;
      case 2: {  // dynamic Huffman
        HuffDecoder literals;
        HuffDecoder distances;
        BSOAP_RETURN_IF_ERROR(
            inflate_dynamic_header(&in, &literals, &distances));
        BSOAP_RETURN_IF_ERROR(
            inflate_block(&in, literals, distances, dict, &out, limit));
        break;
      }
      default:
        return Error{ErrorCode::kParseError, "deflate: reserved block type"};
    }
    if (bfinal.value() != 0) return Status{};
  }
}

}  // namespace

Result<std::string> inflate(std::string_view input, std::size_t max_output,
                            std::string_view dict) {
  std::string out;
  BSOAP_RETURN_IF_ERROR(inflate_into(input, max_output, dict, &out));
  return out;
}

// ---------------------------------------------------------------------------
// CRC-32, the zlib wrapper, the gzip wrapper.
// ---------------------------------------------------------------------------

std::uint32_t crc32(std::string_view data, std::uint32_t seed) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

void append_be32(std::string& out, std::uint32_t value) {
  for (int i = 3; i >= 0; --i) {
    out += static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint32_t read_be32(std::string_view data, std::size_t offset) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value = (value << 8) |
            static_cast<unsigned char>(data[offset + static_cast<std::size_t>(i)]);
  }
  return value;
}

constexpr unsigned char kZlibFlagDict = 0x20;  // FDICT

}  // namespace

void zlib_compress(DeflateStream& stream, std::string_view input,
                   std::string* out) {
  out->clear();
  // CMF: CM=8 (deflate), CINFO=7 (32 KiB window).
  const unsigned char cmf = 0x78;
  unsigned char flg = stream.has_dictionary() ? kZlibFlagDict : 0;
  const unsigned rem = (static_cast<unsigned>(cmf) * 256u + flg) % 31u;
  if (rem != 0) flg = static_cast<unsigned char>(flg + (31u - rem));
  *out += static_cast<char>(cmf);
  *out += static_cast<char>(flg);
  if (stream.has_dictionary()) append_be32(*out, stream.dictionary_id());
  stream.compress(input, out);
  append_be32(*out, adler32(input));
}

std::string zlib_compress(std::string_view input, std::string_view dict) {
  DeflateStream stream;
  stream.preset(dict);
  std::string out;
  zlib_compress(stream, input, &out);
  return out;
}

namespace {

/// zlib_decompress against `dict` into `*out`. The DICTID is `*dict_id`
/// when known; otherwise it is hashed here, and only if the stream asks
/// for a dictionary.
Status zlib_decode(std::string_view input, std::size_t max_output,
                   std::string_view dict, const std::uint32_t* dict_id,
                   std::string* out) {
  if (input.size() < 6) {
    return Error{ErrorCode::kParseError, "zlib: truncated"};
  }
  const unsigned char cmf = static_cast<unsigned char>(input[0]);
  const unsigned char flg = static_cast<unsigned char>(input[1]);
  if ((cmf & 0x0F) != 8) {
    return Error{ErrorCode::kParseError, "zlib: bad method"};
  }
  if ((static_cast<unsigned>(cmf) * 256u + flg) % 31u != 0) {
    return Error{ErrorCode::kParseError, "zlib: bad header check"};
  }
  std::size_t offset = 2;
  std::string_view effective_dict;
  if (flg & kZlibFlagDict) {
    if (input.size() < 10) {
      return Error{ErrorCode::kParseError, "zlib: truncated"};
    }
    const std::uint32_t dictid = read_be32(input, 2);
    offset = 6;
    std::string_view d = dict;
    if (d.size() > kWindowSize) d = d.substr(d.size() - kWindowSize);
    if (d.empty() ||
        (dict_id != nullptr ? *dict_id : adler32(d)) != dictid) {
      return Error{ErrorCode::kInvalidArgument, "zlib: dictionary mismatch"};
    }
    effective_dict = d;
  }
  if (input.size() < offset + 4) {
    return Error{ErrorCode::kParseError, "zlib: truncated"};
  }

  BSOAP_RETURN_IF_ERROR(
      inflate_into(input.substr(offset, input.size() - offset - 4),
                   max_output, effective_dict, out));
  if (adler32(*out) != read_be32(input, input.size() - 4)) {
    return Error{ErrorCode::kParseError, "zlib: Adler-32 mismatch"};
  }
  return Status{};
}

}  // namespace

Result<std::string> zlib_decompress(std::string_view input,
                                    std::size_t max_output,
                                    std::string_view dict) {
  std::string out;
  BSOAP_RETURN_IF_ERROR(zlib_decode(input, max_output, dict, nullptr, &out));
  return out;
}

Status zlib_decompress(std::string_view input, std::size_t max_output,
                       const PresetDictionary& dict, std::string* out) {
  const std::uint32_t id = dict.id();
  return zlib_decode(input, max_output, dict.bytes(), &id, out);
}

std::string gzip_compress(std::string_view input) {
  std::string out;
  // Header: magic, deflate, no flags, no mtime, no extra flags, unknown OS.
  const char header[10] = {'\x1f', '\x8b', 8, 0, 0, 0, 0, 0, 0, '\xff'};
  out.append(header, sizeof(header));
  out += deflate(input);
  const std::uint32_t crc = crc32(input);
  const std::uint32_t size = static_cast<std::uint32_t>(input.size());
  for (int i = 0; i < 4; ++i) out += static_cast<char>((crc >> (8 * i)) & 0xFF);
  for (int i = 0; i < 4; ++i) out += static_cast<char>((size >> (8 * i)) & 0xFF);
  return out;
}

Result<std::string> gzip_decompress(std::string_view input,
                                    std::size_t max_output) {
  if (input.size() < 18 || input[0] != '\x1f' ||
      static_cast<unsigned char>(input[1]) != 0x8b || input[2] != 8) {
    return Error{ErrorCode::kParseError, "gzip: bad header"};
  }
  const unsigned char flags = static_cast<unsigned char>(input[3]);
  std::size_t offset = 10;
  if (flags & 0x04) {  // FEXTRA
    if (input.size() < offset + 2) {
      return Error{ErrorCode::kParseError, "gzip: truncated extra"};
    }
    const std::size_t xlen =
        static_cast<unsigned char>(input[offset]) |
        (static_cast<std::size_t>(static_cast<unsigned char>(input[offset + 1]))
         << 8);
    offset += 2 + xlen;
  }
  for (const unsigned char string_flag : {0x08, 0x10}) {  // FNAME, FCOMMENT
    if (flags & string_flag) {
      const std::size_t end = input.find('\0', offset);
      if (end == std::string_view::npos) {
        return Error{ErrorCode::kParseError, "gzip: unterminated string"};
      }
      offset = end + 1;
    }
  }
  if (flags & 0x02) offset += 2;  // FHCRC
  if (offset + 8 > input.size()) {
    return Error{ErrorCode::kParseError, "gzip: truncated"};
  }

  Result<std::string> body =
      inflate(input.substr(offset, input.size() - offset - 8), max_output);
  if (!body.ok()) return body.error();

  const std::string_view trailer = input.substr(input.size() - 8);
  std::uint32_t expected_crc = 0;
  std::uint32_t expected_size = 0;
  for (int i = 3; i >= 0; --i) {
    expected_crc = (expected_crc << 8) |
                   static_cast<unsigned char>(trailer[static_cast<std::size_t>(i)]);
    expected_size =
        (expected_size << 8) |
        static_cast<unsigned char>(trailer[static_cast<std::size_t>(i + 4)]);
  }
  if (crc32(body.value()) != expected_crc) {
    return Error{ErrorCode::kParseError, "gzip: CRC mismatch"};
  }
  if ((body.value().size() & 0xFFFFFFFFu) != expected_size) {
    return Error{ErrorCode::kParseError, "gzip: ISIZE mismatch"};
  }
  return body;
}

}  // namespace bsoap::compress
