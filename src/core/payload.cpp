#include "core/payload.hpp"

#include "serialize/binary.hpp"
#include "data/compress.hpp"
#include "support/error.hpp"

namespace rex::core {

Bytes ProtocolPayload::encode(Bytes scratch) const {
  serialize::BinaryWriter w(std::move(scratch));
  w.u8(static_cast<std::uint8_t>(kind));
  w.varint(epoch);
  w.u32(sender_degree);
  switch (kind) {
    case PayloadKind::kEmpty:
      break;
    case PayloadKind::kRawData:
      w.varint(ratings.size());
      for (const data::Rating& r : ratings) {
        w.u32(r.user);
        w.u32(r.item);
        w.f32(r.value);
      }
      break;
    case PayloadKind::kModel:
    case PayloadKind::kModelQuantized:
      w.bytes(model_blob);
      break;
    case PayloadKind::kRawDataCompressed:
      data::encode_ratings_compressed(w, ratings);
      break;
    case PayloadKind::kResyncRequest:
      w.varint(resync_gen);
      break;
    case PayloadKind::kResyncModel:
      w.varint(resync_gen);
      w.bytes(model_blob);
      break;
  }
  return w.take();
}

ProtocolPayload ProtocolPayload::decode(BytesView bytes) {
  ProtocolPayload payload;
  decode_into(bytes, payload);
  return payload;
}

void ProtocolPayload::decode_into(BytesView bytes, ProtocolPayload& out) {
  serialize::BinaryReader r(bytes);
  out.ratings.clear();
  out.model_blob.clear();
  out.resync_gen = 0;  // recycled decode targets must not leak a stale gen
  const std::uint8_t kind_byte = r.u8();
  REX_REQUIRE(
      kind_byte <= static_cast<std::uint8_t>(PayloadKind::kModelQuantized),
      "unknown payload kind");
  out.kind = static_cast<PayloadKind>(kind_byte);
  out.epoch = r.varint();
  out.sender_degree = r.u32();
  switch (out.kind) {
    case PayloadKind::kEmpty:
      break;
    case PayloadKind::kRawData: {
      // Each rating is 12 bytes on the wire (u32 user, u32 item, f32
      // value): check a crafted count before reserving for it.
      const std::uint64_t count = r.varint();
      REX_REQUIRE(count <= r.remaining() / 12,
                  "rating count exceeds the message");
      out.ratings.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        data::Rating rating;
        rating.user = r.u32();
        rating.item = r.u32();
        rating.value = r.f32();
        out.ratings.push_back(rating);
      }
      break;
    }
    case PayloadKind::kModel:
    case PayloadKind::kModelQuantized: {
      // bytes() framing (varint length + raw), assigned so a recycled
      // model_blob keeps its capacity.
      const std::uint64_t n = r.varint();
      const BytesView raw = r.raw(n);
      out.model_blob.assign(raw.begin(), raw.end());
      break;
    }
    case PayloadKind::kRawDataCompressed:
      // Decodes into the recycled ratings buffer — the batch-decode hot
      // path must not allocate a fresh vector per delivery.
      data::decode_ratings_compressed(r, out.ratings);
      break;
    case PayloadKind::kResyncRequest:
      out.resync_gen = r.varint();
      break;
    case PayloadKind::kResyncModel: {
      out.resync_gen = r.varint();
      const std::uint64_t n = r.varint();
      const BytesView raw = r.raw(n);
      out.model_blob.assign(raw.begin(), raw.end());
      break;
    }
  }
  r.expect_end();
}

}  // namespace rex::core
