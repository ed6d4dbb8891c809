// Wire format of the multi-process transport (TCP sockets): length-prefixed
// frames over common/serialize.
//
// Frame layout (host byte order — loopback/LAN TCP between homogeneous
// edge boxes, matching serialize.hpp's "no endianness handling"):
//
//   header, 20 bytes:
//     u32 magic      0x50414346 ("PACF")
//     u8  type       FrameType below
//     u8  flags      bit 0: DATA payload is a defined tensor
//                    bit 1: frame is authenticated (an 8-byte SipHash-2-4
//                           tag over header+body follows the body)
//     u8  dtype      quant::Dtype of a defined DATA payload (0 = fp32,
//                    1 = fp16, 2 = int8); must be zero otherwise.  fp32
//                    frames are byte-identical to the original format,
//                    which reserved this byte as zero.
//     u8  reserved   must be zero
//     i32 src        DATA: source rank · HELLO / RESYNC: sending rank ·
//                    RANK_DEAD / ROOT_DEAD: the dead rank · CLOSE: ignored
//     i32 tag        DATA: message tag · otherwise zero
//     u32 body_len   bytes that follow the header (before any auth tag)
//   body (DATA with a defined payload):
//     fp32: u32 ndim, i64 dims[ndim], f32 data[numel]
//     fp16: u32 ndim, i64 dims[ndim], u16 data[numel]
//     int8: u32 ndim, i64 dims[ndim], f32 scales[rows], i8 data[numel]
//           (rows = numel / dims[ndim-1], the per-row scale count)
//   body (RESYNC), 12 bytes:
//     u32 epoch      per-link session epoch (sender: the epoch it proposes
//                    for the new connection; receiver reply: the adopted
//                    epoch)
//     u64 delivered  cumulative logical frames the receiver has delivered
//                    from this link (sender->receiver RESYNCs carry 0)
//   auth tag (only when flags bit 1 is set), 8 bytes:
//     SipHash-2-4 of header+body under a 128-bit pre-shared key.  The tag
//     covers the header WITH the auth bit already set, so a stripped or
//     replayed-onto-plaintext frame never verifies.
//
// Authentication is opt-in per decoder: a FrameDecoder with a key REQUIRES
// every frame to carry a valid tag (so tags cannot be stripped), verifies it
// BEFORE parsing the body, and poisons itself on any mismatch — a tampered
// frame can never reach a mailbox.  A decoder without a key rejects
// authenticated frames; unauthenticated fp32 frames stay byte-identical to
// the legacy format.
//
// FrameDecoder consumes an arbitrary byte stream incrementally — frames may
// arrive truncated, split across reads, or concatenated — and yields whole
// frames, throwing TransportError on anything malformed (bad magic, unknown
// type, oversized length, dimension overflow, bad auth tag).  It is the fuzz
// target in tests/fuzz_test.cpp: garbage in must give a clean
// TransportError, never UB.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "tensor/quant.hpp"
#include "tensor/tensor.hpp"

namespace pac::dist::wire {

inline constexpr std::uint32_t kMagic = 0x50414346u;  // "PACF"
inline constexpr std::size_t kHeaderBytes = 20;
// Tensors above this size are a bug, not a workload (tiny edge models).
inline constexpr std::uint32_t kMaxBodyBytes = 256u * 1024 * 1024;
inline constexpr std::uint32_t kMaxDims = 8;

// Header flag bits.
inline constexpr std::uint8_t kFlagDefinedPayload = 1u << 0;
inline constexpr std::uint8_t kFlagAuthenticated = 1u << 1;

inline constexpr std::size_t kAuthTagBytes = 8;
inline constexpr std::size_t kAuthKeyBytes = 16;
inline constexpr std::uint32_t kResyncBodyBytes = 12;

using AuthKey = std::array<std::uint8_t, kAuthKeyBytes>;

enum class FrameType : std::uint8_t {
  kData = 1,      // a (src, tag, tensor) message
  kHello = 2,     // TCP connection handshake: identifies the sending rank
  kRankDead = 3,  // control: rank `src` is dead (close_rank propagation)
  kClose = 4,     // control: whole-world close()
  kRootDead = 5,  // control: rank `src` is the root-cause death record
  kResync = 6,    // reconnect handshake / cumulative delivery ack
};

struct Frame {
  FrameType type = FrameType::kData;
  int src = -1;
  int tag = 0;
  bool payload_defined = false;
  quant::Dtype dtype = quant::Dtype::kF32;
  Tensor payload;  // defined only for fp32 DATA frames with the defined flag
  // Compressed payload for fp16/int8 DATA frames (payload stays undefined;
  // the receiving endpoint dequantizes only if the consumer asks for fp32).
  std::optional<quant::QTensor> qpayload;
  // RESYNC fields (see header comment).
  std::uint32_t resync_epoch = 0;
  std::uint64_t resync_delivered = 0;
};

// Serializes a frame to bytes ready for a ring or socket write.
std::vector<std::uint8_t> encode_data(int src, int tag, const Tensor& payload);
// Compressed variant; a kF32 QTensor encodes byte-identically to
// encode_data of the equivalent fp32 tensor.
std::vector<std::uint8_t> encode_data_q(int src, int tag,
                                        const quant::QTensor& payload);
std::vector<std::uint8_t> encode_control(FrameType type, int src);
std::vector<std::uint8_t> encode_resync(int src, std::uint32_t epoch,
                                        std::uint64_t delivered);

// SipHash-2-4 over `len` bytes under a 128-bit key (the MAC primitive; the
// reference vectors are checked in fuzz_test.cpp).
std::uint64_t siphash24(const AuthKey& key, const std::uint8_t* data,
                        std::size_t len);

// In-place frame authentication: sets the auth flag bit in the header and
// appends the 8-byte tag over header+body.  Applied AFTER encode_* so the
// unauthenticated encoding stays byte-identical to legacy.
void authenticate(std::vector<std::uint8_t>& frame, const AuthKey& key);

// 32-hex-char <-> 16-byte key conversions (the rendezvous service ships
// keys as hex lines).  Throws TransportError on malformed hex.
AuthKey key_from_hex(const std::string& hex);
std::string key_to_hex(const AuthKey& key);

// Incremental decoder over a byte stream.  feed() appends raw bytes; next()
// pops the next complete frame or nullopt if more bytes are needed.  Throws
// pac::TransportError on malformed input; after a throw the decoder is
// poisoned (the stream has lost sync) and every later call throws too.
class FrameDecoder {
 public:
  // `world_size` bounds the src field; pass 0 to skip rank validation
  // (fuzzing arbitrary worlds).
  explicit FrameDecoder(int world_size = 0) : world_size_(world_size) {}

  // Requires and verifies an auth tag on EVERY subsequent frame; a frame
  // without the auth bit, or with a mismatched tag, poisons the decoder.
  void set_auth_key(const AuthKey& key) { key_ = key; }

  void feed(const std::uint8_t* data, std::size_t len);
  std::optional<Frame> next();

  // Bytes buffered but not yet consumed as a complete frame (a trailing
  // partial frame after a peer dies is silently discarded by the owner).
  std::size_t pending_bytes() const { return buffer_.size(); }
  // Tag mismatches observed before poisoning (0 or 1; also exported as the
  // wire.auth_fail counter).
  std::uint64_t auth_failures() const { return auth_failures_; }

 private:
  [[noreturn]] void poison(const std::string& what);

  int world_size_;
  bool poisoned_ = false;
  std::optional<AuthKey> key_;
  std::uint64_t auth_failures_ = 0;
  std::deque<std::uint8_t> buffer_;
};

}  // namespace pac::dist::wire
