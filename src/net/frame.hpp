// Length-prefixed wire framing for the socket transport (DESIGN.md §11
// "Frame format").
//
// Every frame on a peer connection is [u32 length | u8 type | body], with
// `length` = 1 + body size, little-endian, so a byte stream self-delimits
// under arbitrary TCP segmentation. Data frames carry exactly the
// Envelope's accounted wire image — [u32 src | u32 dst | u8 kind | payload]
// — which is why Envelope::kHeaderSize already budgets a u32 length prefix:
// the simulated byte accounting and the real socket bytes agree to within
// the one frame-type byte. The payload inside a data frame is whatever the
// TrustedNode produced (AEAD-framed ciphertext between attested SGX nodes,
// DESIGN.md §6); the framing layer never inspects it.
//
// Control frames stay below the protocol: HELLO (peer identification plus a
// cluster-config fingerprint, so two processes launched from different
// configs refuse to talk instead of desynchronizing), PING/PONG (RTT
// estimation for the netstats ledger), DONE (epoch-target completion
// announcement, the cluster's shutdown barrier).
#pragma once

#include <cstdint>
#include <optional>

#include "net/message.hpp"
#include "support/bytes.hpp"

namespace rex::net {

enum class FrameType : std::uint8_t {
  kHello = 1,  // body: u32 magic | u16 version | u32 node id | u64 fingerprint
  kData = 2,   // body: u32 src | u32 dst | u8 kind | payload
  kPing = 3,   // body: u64 opaque echo token (sender's clock reading)
  kPong = 4,   // body: the PING's token, verbatim
  kDone = 5,   // body: u32 node id | u64 epochs completed
};

/// First bytes of every HELLO body; a connection whose first frame does not
/// carry it is not a rex_node and is dropped.
inline constexpr std::uint32_t kHelloMagic = 0x4E584552;  // "REXN"
inline constexpr std::uint16_t kWireVersion = 1;

/// Hard upper bound on a frame body. Model blobs are the largest legitimate
/// payloads (MiB-scale at paper dimensions); anything beyond this is a
/// corrupt or hostile length prefix and kills the connection instead of
/// driving a multi-GiB allocation.
inline constexpr std::size_t kMaxFrameBody = 64u << 20;

/// One decoded frame: the type plus a view into the parser's buffer (valid
/// until the next FrameParser::next / feed call).
struct Frame {
  FrameType type = FrameType::kData;
  BytesView body;
};

/// Decoded kData body. `payload` views the parser buffer; the transport
/// copies it into a pooled SharedBytes before handing it to the host.
struct DataFrame {
  NodeId src = 0;
  NodeId dst = 0;
  MessageKind kind = MessageKind::kProtocol;
  BytesView payload;
};

/// Decoded kHello body.
struct HelloFrame {
  std::uint16_t version = 0;
  NodeId node = 0;
  std::uint64_t fingerprint = 0;
};

/// Decoded kDone body.
struct DoneFrame {
  NodeId node = 0;
  std::uint64_t epochs = 0;
};

// ===== Encoders (append to `out`, never clear it) =====

void append_hello(Bytes& out, NodeId node, std::uint64_t fingerprint);
void append_data(Bytes& out, const Envelope& envelope);
void append_ping(Bytes& out, std::uint64_t token);
void append_pong(Bytes& out, std::uint64_t token);
void append_done(Bytes& out, NodeId node, std::uint64_t epochs);

// ===== Body decoders =====
// Each reads through serialize::BinaryReader and throws rex::Error on a
// truncated body, trailing bytes, a wrong HELLO magic or an unknown message
// kind: to the transport, any throw is a protocol violation.

[[nodiscard]] HelloFrame decode_hello(BytesView body);
[[nodiscard]] DataFrame decode_data(BytesView body);
/// PING and PONG carry the same body: the opaque echo token.
[[nodiscard]] std::uint64_t decode_ping_token(BytesView body);
[[nodiscard]] DoneFrame decode_done(BytesView body);

/// Incremental frame extractor over a TCP byte stream. feed() appends raw
/// received bytes; next() yields complete frames in order, retaining any
/// trailing partial frame for the next feed. Consumed prefixes are compacted
/// lazily (only once the buffer fully drains, or grows past the watermark)
/// so a burst of small frames costs no per-frame memmove.
class FrameParser {
 public:
  void feed(BytesView bytes);

  /// Next complete frame, or nullopt when the buffer holds only a partial
  /// one. The returned views point into the internal buffer and stay valid
  /// until the next feed() call. Throws rex::Error on a malformed stream
  /// (oversized length prefix, unknown frame type) — the caller must drop
  /// the connection; there is no way to resynchronize a framed TCP stream.
  [[nodiscard]] std::optional<Frame> next();

  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t pending() const { return buffer_.size() - head_; }

 private:
  Bytes buffer_;
  std::size_t head_ = 0;
};

}  // namespace rex::net
