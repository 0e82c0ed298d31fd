#include "data/compress.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace rex::data {

namespace {

/// Rating value -> 4-bit code. The MovieLens scale has exactly ten values
/// (0.5..5.0 in 0.5 steps), code = 2v - 1 in 0..9.
std::uint8_t rating_code(float value) {
  const float doubled = value * 2.0f;
  const float rounded = std::round(doubled);
  REX_REQUIRE(std::abs(doubled - rounded) < 1e-3f &&
                  rounded >= 1.0f && rounded <= 10.0f,
              "compressed codec requires half-star grid ratings");
  return static_cast<std::uint8_t>(rounded - 1.0f);
}

float code_rating(std::uint8_t code) {
  REX_REQUIRE(code <= 9, "invalid rating code");
  return static_cast<float>(code + 1) * 0.5f;
}

void sort_batch(std::vector<Rating>& batch) {
  std::sort(batch.begin(), batch.end(),
            [](const Rating& a, const Rating& b) {
              return a.user != b.user ? a.user < b.user : a.item < b.item;
            });
}

/// Encoder body over an already-sorted batch.
void encode_sorted(serialize::BinaryWriter& w,
                   const std::vector<Rating>& batch) {
  w.varint(batch.size());

  // Delta-encoded ids: users are non-decreasing; items are non-decreasing
  // within a user run (duplicates from stateless sampling are legal and
  // yield zero deltas).
  UserId prev_user = 0;
  ItemId prev_item = 0;
  for (const Rating& r : batch) {
    const std::uint32_t user_delta = r.user - prev_user;
    w.varint(user_delta);
    if (user_delta != 0) prev_item = 0;
    w.varint(r.item - prev_item);
    prev_user = r.user;
    prev_item = r.item;
  }

  // Nibble-packed 4-bit rating codes, batch order.
  std::uint8_t pending = 0;
  bool half = false;
  for (const Rating& r : batch) {
    const std::uint8_t code = rating_code(r.value);
    if (!half) {
      pending = code;
      half = true;
    } else {
      w.u8(static_cast<std::uint8_t>(pending | (code << 4)));
      half = false;
    }
  }
  if (half) w.u8(pending);
}

std::vector<Rating>& tls_sort_scratch() {
  static thread_local std::vector<Rating> scratch;
  return scratch;
}

}  // namespace

void encode_ratings_compressed(serialize::BinaryWriter& w,
                               std::span<const Rating> batch,
                               std::vector<Rating>& scratch) {
  scratch.assign(batch.begin(), batch.end());
  sort_batch(scratch);
  encode_sorted(w, scratch);
}

void encode_ratings_compressed(serialize::BinaryWriter& w,
                               std::span<const Rating> batch) {
  encode_ratings_compressed(w, batch, tls_sort_scratch());
}

void decode_ratings_compressed(serialize::BinaryReader& r,
                               std::vector<Rating>& out) {
  // Each rating takes at least two bytes (one per delta varint): check a
  // crafted count before reserving for it.
  const std::uint64_t count = r.varint();
  REX_REQUIRE(count <= r.remaining() / 2, "rating count exceeds the message");
  out.clear();
  out.reserve(count);

  UserId prev_user = 0;
  ItemId prev_item = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t user_delta = r.varint();
    REX_REQUIRE(user_delta <= 0xFFFFFFFFull, "user delta out of range");
    const UserId user =
        prev_user + static_cast<UserId>(user_delta);
    if (user_delta != 0) prev_item = 0;
    const std::uint64_t item_delta = r.varint();
    REX_REQUIRE(item_delta <= 0xFFFFFFFFull, "item delta out of range");
    const ItemId item =
        prev_item + static_cast<ItemId>(item_delta);
    out.push_back(Rating{user, item, 0.0f});
    prev_user = user;
    prev_item = item;
  }

  for (std::uint64_t i = 0; i < count; i += 2) {
    const std::uint8_t byte = r.u8();
    out[i].value = code_rating(byte & 0x0F);
    if (i + 1 < count) {
      out[i + 1].value = code_rating(byte >> 4);
    } else {
      REX_REQUIRE((byte >> 4) == 0, "trailing rating nibble must be zero");
    }
  }
}

}  // namespace rex::data
