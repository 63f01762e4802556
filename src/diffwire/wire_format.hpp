// Diff-wire protocol: frame format and negotiation header constants.
//
// Differential serialization (the paper) saves serialization CPU, but every
// send still ships the full envelope; the diff-wire protocol extends the
// saving to the socket. Client and server pin a template by ID (negotiated
// over HTTP headers on a full send), after which a non-structural update
// crosses the wire as a binary patch frame carrying only the dirty runs the
// update stage already computed — the Jelly-Patch idea applied to bSOAP's
// DUT runs. A content match degenerates to a header-only "replay" frame.
//
// Negotiation rides custom headers on the normal SOAP POST / response:
//
//   full send   C→S   X-BSoap-Diff: v1          offer: pin this body under
//                     X-BSoap-Template: <16hex> the given template ID
//   response    S→C   X-BSoap-Diff: ack         replica pinned (epoch 0)
//                     X-BSoap-Template: <16hex>
//   patch send  C→S   Content-Type: application/x-bsoap-patch
//                     X-BSoap-Diff: patch       body = one PatchFrame
//   nack        S→C   HTTP 409 +
//                     X-BSoap-Diff: nack        replica unusable: sender
//                     X-BSoap-Template: <16hex> must fall back to full+offer
//
// Every full send (first-time or structural fallback) re-offers, so the
// replica is re-pinned at epoch 0 whenever the patch chain breaks. Patch
// frames carry an epoch the receiver checks strictly (+1 per applied
// frame); a lost or replayed frame therefore NACKs instead of silently
// corrupting the replica, and a root digest over the whole reconstructed
// body backstops the epoch chain.
//
// Binary frame layout, version 2 (all integers little-endian):
//
//   offset  size  field
//        0     4  magic "BSDP"
//        4     1  version (2)
//        5     1  flags (bit0 = replay: set exactly when run_count is 0,
//                        body unchanged; other bits must be 0)
//        6     2  reserved (0)
//        8     8  template_id
//       16     4  epoch
//       20     4  run_count
//       24     4  body_len      (reconstructed body size; patches never
//                                change the length — structural updates
//                                fall back to full sends)
//       28     8  checksum      (root of the reconstructed body, below)
//       36   ...  run_count × { offset u32, length u32, bytes[length] }
//
// The root: split the body into kBlockSize-byte blocks (the last may be
// shorter) and sum, mod 2^64, block_digest(i, block i) over every block i.
// Each digest is keyed by its block's index, so moved bytes change it, and
// the sum lets both ends keep the root current in O(1) per changed block:
// the sender re-hashes only the blocks its dirty runs touch, the receiver
// only the blocks the frame's runs overwrite, and a replay hashes nothing.
// The work per patch stays proportional to the dirty bytes (the per-chunk
// digests of *Non-Blocking Signature of very large SOAP Messages*, kept
// incrementally). What the root proves is that the receiver's replica
// matches the sender's digests. The sender's digests are not a fresh pass
// over its template, so they match the template only if the update
// journal recorded every changed byte; builds with BSOAP_DEBUG_INVARIANTS
// (debug and sanitizer builds) check each patch's root against a
// from-scratch root of the template.
//
// This layer is deliberately core-free: it knows HTTP headers and bytes,
// not templates. SendPipeline extracts runs from its update journal and
// hands generic (offset, length) records down here.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace bsoap::diffwire {

// --- negotiation headers ---------------------------------------------------

inline constexpr const char* kDiffHeader = "X-BSoap-Diff";
inline constexpr const char* kTemplateHeader = "X-BSoap-Template";
inline constexpr const char* kOfferValue = "v1";
inline constexpr const char* kAckValue = "ack";
inline constexpr const char* kNackValue = "nack";
inline constexpr const char* kPatchValue = "patch";
inline constexpr const char* kPatchContentType = "application/x-bsoap-patch";

// Second differential layer: template-preset wire compression. A client
// willing to preset-code adds `X-BSoap-Coding: deflate-preset` to its
// offers; the server echoes the header on the ack when the coding is
// enabled. Once acked, patch frames and structural-fallback full re-offers
// go out zlib-compressed with the DEFLATE window preset from the pinned
// generation's body (RFC 1950 FDICT — the DICTID commits both sides to the
// same dictionary bytes). A preset-coded body carries its template ID in
// kTemplateHeader, since the in-band ID is unreadable before decoding; a
// body the receiver cannot decode (replica evicted, dictionary drift)
// NACKs like any other replica conflict, so the coding inherits the
// protocol's full-send self-healing.
inline constexpr const char* kCodingHeader = "X-BSoap-Coding";
inline constexpr const char* kCodingPresetValue = "deflate-preset";

/// HTTP status a NACK answer carries (the patch conflicted with the
/// receiver's replica state).
inline constexpr int kNackStatus = 409;

/// Template IDs travel as fixed-width 16-digit lowercase hex.
std::string format_template_id(std::uint64_t id);
/// Parses a 16-digit hex template ID; false on malformed input.
bool parse_template_id(std::string_view text, std::uint64_t* id);

// --- block digests ---------------------------------------------------------

/// Integrity granularity. The body is hashed in fixed blocks of this many
/// bytes (the last block may be shorter), so a patch re-hashes only the
/// blocks its runs touch. Dirty values land at random positions, so at 1%
/// dirty 4 KiB blocks would still re-hash most of a large body. On the
/// traced 190 KB patch_upload run (one CPU of a 4-vCPU x86-64 VM), 256 B,
/// 512 B and 1 KiB blocks cost the same within noise (patch apply 13.2 / 11.7 / 12.0 µs, dominated by the
/// body copy); 512 B keeps half the digests of 256 B and re-hashes fewer
/// bytes than 1 KiB.
inline constexpr std::size_t kBlockSize = 512;

/// Digest of block `index` holding `n` bytes (n ≤ kBlockSize): a 64-bit
/// multiply-rotate mix over 8-byte words, in four independent lanes, seeded
/// with the block's index and length so the same bytes at another position
/// (or a truncated block) digest differently.
std::uint64_t block_digest(std::uint32_t index, const char* data,
                           std::size_t n) noexcept;

/// The root of `body` computed from scratch: Σ block_digest(i, block i)
/// mod 2^64. The frame checksum, and the oracle incremental roots are
/// checked against.
std::uint64_t body_root(std::string_view body) noexcept;

/// The block digests of one body plus their root, kept incrementally:
/// because the root is a sum, replacing one block's digest updates it in
/// O(1). The receiver keeps one per pinned replica; the sender keeps one per
/// pinned wire ID.
class BlockDigests {
 public:
  /// Sizes for a body of `body_len` bytes with every digest and the root
  /// zero; fill with set().
  void reset(std::size_t body_len);
  /// Digests every block of a contiguous body.
  void assign(std::string_view body);
  /// Replaces block `index`'s digest and folds the change into the root.
  void set(std::size_t index, std::uint64_t digest) noexcept {
    root_ += digest - digests_[index];
    digests_[index] = digest;
  }
  /// Re-digests block `index` of `body` (the body_len() bytes digested).
  void rehash(std::string_view body, std::size_t index) noexcept;

  std::uint64_t digest(std::size_t index) const noexcept {
    return digests_[index];
  }
  std::uint64_t root() const noexcept { return root_; }
  std::size_t body_len() const noexcept { return body_len_; }
  std::size_t block_count() const noexcept { return digests_.size(); }

 private:
  std::vector<std::uint64_t> digests_;
  std::uint64_t root_ = 0;
  std::size_t body_len_ = 0;
};

/// Calls `fn(block)` for each block the (offset, length) runs overlap,
/// skipping a block the previous run already reported — with ascending
/// runs, each block exactly once. Runs in any other order may repeat a
/// block, which re-digesting makes harmless.
template <typename Runs, typename Fn>
void for_each_touched_block(const Runs& runs, Fn&& fn) {
  std::size_t last = static_cast<std::size_t>(-1);
  for (const auto& run : runs) {
    if (run.length == 0) continue;
    const std::size_t end =
        (static_cast<std::size_t>(run.offset) + run.length - 1) / kBlockSize;
    for (std::size_t b = run.offset / kBlockSize; b <= end; ++b) {
      if (b != last) fn(b);
      last = b;
    }
  }
}

// --- patch frames ----------------------------------------------------------

inline constexpr char kMagic[4] = {'B', 'S', 'D', 'P'};
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::uint8_t kFlagReplay = 0x01;
inline constexpr std::size_t kFrameHeaderSize = 36;
inline constexpr std::size_t kRunHeaderSize = 8;

struct PatchHeader {
  std::uint8_t version = kVersion;
  std::uint8_t flags = 0;
  std::uint64_t template_id = 0;
  std::uint32_t epoch = 0;
  std::uint32_t run_count = 0;
  std::uint32_t body_len = 0;
  std::uint64_t checksum = 0;  ///< body_root() of the reconstructed body

  bool replay() const { return (flags & kFlagReplay) != 0; }
};

/// One decoded run record; `data` points into the frame the patch was
/// decoded from and is valid only while that buffer lives.
struct PatchRun {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  const char* data = nullptr;
};

struct PatchFrame {
  PatchHeader header;
  std::vector<PatchRun> runs;
};

/// Appends the 36-byte frame header. The writer appends run records after
/// it: append_run_header then exactly `length` payload bytes each.
void append_patch_header(std::string& out, const PatchHeader& header);
void append_run_header(std::string& out, std::uint32_t offset,
                       std::uint32_t length);

/// Decodes a complete frame (an HTTP request body). Validates magic,
/// version, flags (only kFlagReplay is defined, and it is set exactly when
/// run_count is 0), the zero reserved bytes and exact length; run bounds
/// against body_len are the ReplicaStore's job (it owns the replica the
/// offsets index).
Result<PatchFrame> decode_patch(std::string_view body);

// --- canned responses ------------------------------------------------------

/// Renders the full HTTP 409 NACK answer (headers above + a short plain
/// text body), Content-Length framed so the sender's response reader stays
/// in sync and the connection survives.
std::string render_nack_response(std::uint64_t template_id,
                                 std::string_view reason);

}  // namespace bsoap::diffwire
