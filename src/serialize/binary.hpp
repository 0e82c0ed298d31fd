// Compact binary wire format for hot-path payloads (raw-data batches and
// model blobs). Little-endian fixed-width scalars plus LEB128 varints;
// readers bounds-check every access and throw rex::Error on truncated or
// corrupt input — malformed network bytes must never crash an enclave.
//
// The scalar accessors are defined inline: the learning cell decodes
// millions of small payloads per run, and per-field out-of-line calls
// (u32/f32/varint per rating) showed up as real time in profiles. Bulk and
// cold paths (f32_array, bytes, str) stay in the .cpp.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace rex::serialize {

class BinaryWriter {
 public:
  BinaryWriter() = default;
  /// Recycles `scratch`'s heap capacity as the output buffer (cleared
  /// first): hot-path encoders pull scratch from a BufferPool instead of
  /// growing a fresh vector per message.
  explicit BinaryWriter(Bytes scratch) : out_(std::move(scratch)) {
    out_.clear();
  }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    const std::size_t n = out_.size();
    out_.resize(n + 4);
    store_le32(out_.data() + n, v);
  }
  void u64(std::uint64_t v) {
    const std::size_t n = out_.size();
    out_.resize(n + 8);
    store_le64(out_.data() + n, v);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// Bulk little-endian f32 block, no length prefix (caller knows the
  /// count). One resize+memcpy — this is the model-blob hot path.
  void f32_array(std::span<const float> values);

  /// Unsigned LEB128.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Length-prefixed (varint) byte string.
  void bytes(BytesView b);

  /// Length-prefixed UTF-8 string.
  void str(std::string_view s);

  /// Raw bytes, no length prefix (caller controls framing).
  void raw(BytesView b) { append(out_, b); }

  [[nodiscard]] const Bytes& buffer() const { return out_; }
  [[nodiscard]] Bytes take() { return std::move(out_); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  Bytes out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(BytesView data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (std::uint16_t{data_[pos_ + 1]} << 8));
    pos_ += 2;
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    need(4);
    const std::uint32_t v = load_le32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    need(8);
    const std::uint64_t v = load_le64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] float f32() { return std::bit_cast<float>(u32()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  /// Bulk little-endian f32 block into `out` (counterpart of
  /// BinaryWriter::f32_array): one bounds check + memcpy.
  void f32_array(std::span<float> out);
  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      REX_REQUIRE(shift < 64, "varint too long");
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }
  [[nodiscard]] Bytes bytes();
  [[nodiscard]] std::string str();

  /// Raw view of the next n bytes (consumed).
  [[nodiscard]] BytesView raw(std::size_t n) {
    need(n);
    const BytesView view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

  /// Asserts that the whole buffer was consumed (message framing check).
  void expect_end() const;

 private:
  void need(std::size_t n) const {
    // Not pos_ + n <= size: that sum wraps for a crafted n near 2^64.
    REX_REQUIRE(n <= remaining(), "binary message truncated");
  }

  BytesView data_;
  std::size_t pos_ = 0;
};

}  // namespace rex::serialize
