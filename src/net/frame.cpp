#include "net/frame.hpp"

#include "serialize/binary.hpp"
#include "support/error.hpp"

namespace rex::net {

namespace {

/// Appends one frame whose body is `head` followed by `tail`. Two parts so
/// a data frame copies its payload once instead of staging it in a body.
void append_frame(Bytes& out, FrameType type, BytesView head,
                  BytesView tail = {}) {
  const std::size_t body = head.size() + tail.size();
  REX_REQUIRE(body <= kMaxFrameBody, "frame body over the size cap");
  const std::size_t at = out.size();
  out.resize(at + 5);
  store_le32(out.data() + at, static_cast<std::uint32_t>(1 + body));
  out[at + 4] = static_cast<std::uint8_t>(type);
  append(out, head);
  append(out, tail);
}

void append_token(Bytes& out, FrameType type, std::uint64_t token) {
  serialize::BinaryWriter body;
  body.u64(token);
  append_frame(out, type, body.buffer());
}

}  // namespace

void append_hello(Bytes& out, NodeId node, std::uint64_t fingerprint) {
  serialize::BinaryWriter body;
  body.u32(kHelloMagic);
  body.u16(kWireVersion);
  body.u32(node);
  body.u64(fingerprint);
  append_frame(out, FrameType::kHello, body.buffer());
}

void append_data(Bytes& out, const Envelope& envelope) {
  // The header is what Envelope::kHeaderSize accounts: the u32 length
  // prefix plus src/dst/kind.
  serialize::BinaryWriter head;
  head.u32(envelope.src);
  head.u32(envelope.dst);
  head.u8(static_cast<std::uint8_t>(envelope.kind));
  append_frame(out, FrameType::kData, head.buffer(), envelope.payload);
}

void append_ping(Bytes& out, std::uint64_t token) {
  append_token(out, FrameType::kPing, token);
}

void append_pong(Bytes& out, std::uint64_t token) {
  append_token(out, FrameType::kPong, token);
}

void append_done(Bytes& out, NodeId node, std::uint64_t epochs) {
  serialize::BinaryWriter body;
  body.u32(node);
  body.u64(epochs);
  append_frame(out, FrameType::kDone, body.buffer());
}

// Braced initializers evaluate left to right, so the fields read in wire
// order.

HelloFrame decode_hello(BytesView body) {
  serialize::BinaryReader r(body);
  REX_REQUIRE(r.u32() == kHelloMagic, "HELLO without the rex_node magic");
  const HelloFrame hello{r.u16(), r.u32(), r.u64()};
  r.expect_end();
  return hello;
}

DataFrame decode_data(BytesView body) {
  serialize::BinaryReader r(body);
  const NodeId src = r.u32();
  const NodeId dst = r.u32();
  const std::uint8_t kind = r.u8();
  REX_REQUIRE(kind <= static_cast<std::uint8_t>(MessageKind::kResync),
              "data frame with an unknown message kind");
  return {src, dst, static_cast<MessageKind>(kind), r.raw(r.remaining())};
}

std::uint64_t decode_ping_token(BytesView body) {
  serialize::BinaryReader r(body);
  const std::uint64_t token = r.u64();
  r.expect_end();
  return token;
}

DoneFrame decode_done(BytesView body) {
  serialize::BinaryReader r(body);
  const DoneFrame done{r.u32(), r.u64()};
  r.expect_end();
  return done;
}

void FrameParser::feed(BytesView bytes) {
  // Compact before growing: once the unread suffix would sit on top of a
  // large consumed prefix, slide it down so the buffer does not creep.
  if (head_ > 0 && (head_ == buffer_.size() || head_ >= 4096)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameParser::next() {
  const std::size_t avail = buffer_.size() - head_;
  if (avail < 4) return std::nullopt;
  const std::uint32_t length = load_le32(buffer_.data() + head_);
  REX_REQUIRE(length >= 1 && length <= kMaxFrameBody + 1,
              "malformed frame length prefix");
  if (avail < 4 + static_cast<std::size_t>(length)) return std::nullopt;
  const std::uint8_t type = buffer_[head_ + 4];
  REX_REQUIRE(type >= static_cast<std::uint8_t>(FrameType::kHello) &&
                  type <= static_cast<std::uint8_t>(FrameType::kDone),
              "unknown frame type");
  const Frame frame{static_cast<FrameType>(type),
                    BytesView(buffer_).subspan(head_ + 5, length - 1)};
  head_ += 4 + length;
  return frame;
}

}  // namespace rex::net
