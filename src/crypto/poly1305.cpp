#include "crypto/poly1305.hpp"

#include <algorithm>
#include <cstring>

namespace rex::crypto {

// 44-bit limb implementation (three limbs of r and h with 64x64->128-bit
// products), following the public-domain layout of Floodyberry's
// poly1305-donna-64: 9 multiplies per 16-byte block.

namespace {

__extension__ typedef unsigned __int128 U128;

constexpr std::uint64_t kMask44 = 0xfffffffffffULL;
constexpr std::uint64_t kMask42 = 0x3ffffffffffULL;

}  // namespace

Poly1305::Poly1305(const PolyKey& key) {
  const std::uint64_t t0 = load_le64(key.data());
  const std::uint64_t t1 = load_le64(key.data() + 8);
  // r is clamped per the RFC.
  r_[0] = t0 & 0xffc0fffffffULL;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffULL;
  r_[2] = (t1 >> 24) & 0x00ffffffc0fULL;
  s_[0] = load_le64(key.data() + 16);
  s_[1] = load_le64(key.data() + 24);
}

void Poly1305::absorb(const std::uint8_t* blocks, std::size_t n,
                      std::uint64_t hibit) {
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // Limb products past 2^130 wrap to the bottom times 5 (mod 2^130 - 5);
  // the extra factor 4 realigns the 44-bit limb boundary.
  const std::uint64_t s1 = r1 * (5 << 2);
  const std::uint64_t s2 = r2 * (5 << 2);
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (; n >= 16; n -= 16, blocks += 16) {
    const std::uint64_t t0 = load_le64(blocks);
    const std::uint64_t t1 = load_le64(blocks + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    // h *= r (mod 2^130 - 5)
    const U128 d0 = U128{h0} * r0 + U128{h1} * s2 + U128{h2} * s1;
    U128 d1 = U128{h0} * r1 + U128{h1} * r0 + U128{h2} * s2;
    U128 d2 = U128{h0} * r2 + U128{h1} * r1 + U128{h2} * r0;

    // Partial carry propagation.
    std::uint64_t carry = static_cast<std::uint64_t>(d0 >> 44);
    h0 = static_cast<std::uint64_t>(d0) & kMask44;
    d1 += carry;
    carry = static_cast<std::uint64_t>(d1 >> 44);
    h1 = static_cast<std::uint64_t>(d1) & kMask44;
    d2 += carry;
    carry = static_cast<std::uint64_t>(d2 >> 42);
    h2 = static_cast<std::uint64_t>(d2) & kMask42;
    h0 += carry * 5;
    carry = h0 >> 44;
    h0 &= kMask44;
    h1 += carry;
  }
  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::update(BytesView data) {
  constexpr std::uint64_t kHibit = std::uint64_t{1} << 40;  // 2^128
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, sizeof buffer_ - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < sizeof buffer_) return;
    absorb(buffer_, sizeof buffer_, kHibit);
    buffered_ = 0;
  }
  const std::size_t whole = n / 16 * 16;
  absorb(p, whole, kHibit);
  p += whole;
  n -= whole;
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

PolyTag Poly1305::finish() {
  if (buffered_ > 0) {
    // Final partial block: append the 2^(8*len) bit and zero-fill.
    buffer_[buffered_] = 1;
    std::memset(buffer_ + buffered_ + 1, 0, sizeof buffer_ - buffered_ - 1);
    absorb(buffer_, sizeof buffer_, 0);
    buffered_ = 0;
  }
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];

  // Full carry and reduction mod 2^130 - 5.
  std::uint64_t carry = h1 >> 44;
  h1 &= kMask44;
  h2 += carry;
  carry = h2 >> 42;
  h2 &= kMask42;
  h0 += carry * 5;
  carry = h0 >> 44;
  h0 &= kMask44;
  h1 += carry;
  carry = h1 >> 44;
  h1 &= kMask44;
  h2 += carry;
  carry = h2 >> 42;
  h2 &= kMask42;
  h0 += carry * 5;
  carry = h0 >> 44;
  h0 &= kMask44;
  h1 += carry;

  // Compute h + -p and select it when h >= p (constant time).
  std::uint64_t g0 = h0 + 5;
  carry = g0 >> 44;
  g0 &= kMask44;
  std::uint64_t g1 = h1 + carry;
  carry = g1 >> 44;
  g1 &= kMask44;
  const std::uint64_t g2 = h2 + carry - (std::uint64_t{1} << 42);
  const std::uint64_t mask = (g2 >> 63) - 1;  // all-ones if h >= p
  h0 = (h0 & ~mask) | (g0 & mask);
  h1 = (h1 & ~mask) | (g1 & mask);
  h2 = (h2 & ~mask) | (g2 & mask);

  // Add s (the second key half) mod 2^128 and serialize.
  const std::uint64_t t0 = s_[0], t1 = s_[1];
  h0 += t0 & kMask44;
  carry = h0 >> 44;
  h0 &= kMask44;
  h1 += (((t0 >> 44) | (t1 << 20)) & kMask44) + carry;
  carry = h1 >> 44;
  h1 &= kMask44;
  h2 += (t1 >> 24) + carry;
  h2 &= kMask42;

  PolyTag tag;
  store_le64(tag.data(), h0 | (h1 << 44));
  store_le64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

PolyTag poly1305(const PolyKey& key, BytesView data) {
  Poly1305 mac(key);
  mac.update(data);
  return mac.finish();
}

}  // namespace rex::crypto
