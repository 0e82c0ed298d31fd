#include "crypto/poly1305.hpp"

#include <algorithm>
#include <cstring>

#include "linalg/simd_kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define REX_POLY_X86 1
#include <immintrin.h>
#endif

namespace rex::crypto {

// 44-bit limb implementation (three limbs of r and h with 64x64->128-bit
// products), following the public-domain layout of Floodyberry's
// poly1305-donna-64: 9 multiplies per 16-byte block. It is the reference,
// the tail and the whole MAC off x86; long runs of whole blocks take the
// four-lane AVX2 kernel below.

namespace {

__extension__ typedef unsigned __int128 U128;

constexpr std::uint64_t kMask44 = 0xfffffffffffULL;
constexpr std::uint64_t kMask42 = 0x3ffffffffffULL;

/// h *= r (mod 2^130 - 5), carried just enough for the next block's add.
/// s1 and s2 are r1 and r2 times 20: limb products past 2^130 wrap to the
/// bottom times 5, and the extra factor 4 realigns the 44-bit limb
/// boundary.
inline void multiply(std::uint64_t& h0, std::uint64_t& h1, std::uint64_t& h2,
                     std::uint64_t r0, std::uint64_t r1, std::uint64_t r2,
                     std::uint64_t s1, std::uint64_t s2) {
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

#if REX_POLY_X86

// ===== AVX2: four lanes of 26-bit limbs =====
//
// A run of 4k whole blocks m_0..m_(4k-1) must leave
//   h * r^4k + m_0 * r^4k + m_1 * r^(4k-1) + ... + m_(4k-1) * r.
// Lane j takes blocks j, j + 4, j + 8, ... stepping h <- h * r^4 + m per
// 64 bytes, with the incoming accumulator added to lane 0; at the end lane
// j is multiplied by r^(4 - j) and the lanes are summed. That is the same
// value mod 2^130 - 5, which is all the tag depends on. Five 26-bit limbs
// per lane keep _mm256_mul_epu32's 32x32->64-bit products in range: h
// limbs stay below 2^28 and 5 r below 2^29, so each five-term column sum
// stays below 2^60.

constexpr std::uint64_t kMask26 = 0x3ffffff;

/// Splits 44/44/42-bit limbs into five 26-bit ones with the same value.
/// The pieces join by addition: a partly carried limb may run past its 44
/// bits into the positions the next limb's piece fills.
void split26(std::uint64_t h0, std::uint64_t h1, std::uint64_t h2,
             std::uint64_t out[5]) {
  out[0] = h0 & kMask26;
  out[1] = (h0 >> 26) + ((h1 & 0xff) << 18);
  out[2] = (h1 >> 8) & kMask26;
  out[3] = (h1 >> 34) + ((h2 & 0xffff) << 10);
  out[4] = h2 >> 16;
}

/// Joins five limbs below 2^29 at 26-bit spacing into 44/44/42-bit limbs,
/// carried as multiply() leaves them.
void join44(const std::uint64_t l[5], std::uint64_t h[3]) {
  const std::uint64_t a = l[0] + (l[1] << 26);
  const std::uint64_t b = (a >> 44) + (l[2] << 8) + (l[3] << 34);
  const std::uint64_t c = (b >> 44) + (l[4] << 16);
  h[0] = (a & kMask44) + (c >> 42) * 5;
  h[1] = (b & kMask44) + (h[0] >> 44);
  h[0] &= kMask44;
  h[2] = c & kMask42;
}

#define REX_AVX2 __attribute__((target("avx2")))

/// A multiplier per lane as five 26-bit limb vectors, plus limbs 1..4
/// times 5 for the products that wrap past 2^130.
struct Multiplier {
  __m256i r[5];
  __m256i s[5];  // s[0] unused
};

/// Lane j multiplies by the 26-bit limbs at lanes[j].
REX_AVX2 Multiplier make_multiplier(const std::uint64_t* const lanes[4]) {
  Multiplier m;
  for (int i = 0; i < 5; ++i) {
    m.r[i] = _mm256_setr_epi64x(static_cast<long long>(lanes[0][i]),
                                static_cast<long long>(lanes[1][i]),
                                static_cast<long long>(lanes[2][i]),
                                static_cast<long long>(lanes[3][i]));
    m.s[i] = _mm256_add_epi64(m.r[i], _mm256_slli_epi64(m.r[i], 2));
  }
  return m;
}

/// Moves the bits of d[from] above 26 into d[to]; into d[0] they wrap
/// past 2^130, so they enter times 5.
REX_AVX2 inline void carry26(__m256i d[5], int from, int to) {
  const __m256i c = _mm256_srli_epi64(d[from], 26);
  d[from] = _mm256_and_si256(d[from], _mm256_set1_epi64x(kMask26));
  d[to] = _mm256_add_epi64(
      d[to], to == 0 ? _mm256_add_epi64(c, _mm256_slli_epi64(c, 2)) : c);
}

/// h = h * m (mod 2^130 - 5) per lane, carried back below 2^26 + 2^9.
REX_AVX2 inline void multiply_avx2(__m256i h[5], const Multiplier& m) {
  // Limb k sums h_i r_j over i + j = k, and h_i 5 r_j over i + j = k + 5.
  __m256i d[5];
  for (int k = 0; k < 5; ++k) {
    d[k] = _mm256_mul_epu32(h[0], m.r[k]);
    for (int i = 1; i < 5; ++i) {
      const __m256i f = i <= k ? m.r[k - i] : m.s[k + 5 - i];
      d[k] = _mm256_add_epi64(d[k], _mm256_mul_epu32(h[i], f));
    }
  }
  // Two interleaved carry chains.
  carry26(d, 0, 1);
  carry26(d, 3, 4);
  carry26(d, 1, 2);
  carry26(d, 4, 0);
  carry26(d, 2, 3);
  carry26(d, 0, 1);
  carry26(d, 3, 4);
  for (int i = 0; i < 5; ++i) h[i] = d[i];
}

/// Adds the next four blocks (64 bytes at `p`, 2^128 pad bit included) to
/// the lanes. Unpacking works inside 128-bit halves, so the lanes take
/// blocks 0, 2, 1, 3 of each group.
REX_AVX2 inline void add_blocks_avx2(__m256i h[5], const std::uint8_t* p) {
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
  const __m256i lo = _mm256_unpacklo_epi64(a, b);
  const __m256i hi = _mm256_unpackhi_epi64(a, b);
  const __m256i mask = _mm256_set1_epi64x(kMask26);
  const __m256i m[5] = {
      _mm256_and_si256(lo, mask),
      _mm256_and_si256(_mm256_srli_epi64(lo, 26), mask),
      _mm256_and_si256(_mm256_or_si256(_mm256_srli_epi64(lo, 52),
                                       _mm256_slli_epi64(hi, 12)),
                       mask),
      _mm256_and_si256(_mm256_srli_epi64(hi, 14), mask),
      _mm256_or_si256(_mm256_srli_epi64(hi, 40), _mm256_set1_epi64x(1 << 24)),
  };
  for (int i = 0; i < 5; ++i) h[i] = _mm256_add_epi64(h[i], m[i]);
}

/// Absorbs the whole 64-byte groups of `n` bytes of full blocks into h
/// (44-bit limbs, clamped key r); returns the bytes consumed.
REX_AVX2 std::size_t absorb_avx2(std::uint64_t h[3], const std::uint64_t r[3],
                                 const std::uint8_t* p, std::size_t n) {
  // r^1..r^4, each as 26-bit limbs.
  const std::uint64_t s1 = r[1] * (5 << 2);
  const std::uint64_t s2 = r[2] * (5 << 2);
  std::uint64_t pow[4][5];
  std::uint64_t t0 = r[0], t1 = r[1], t2 = r[2];
  split26(t0, t1, t2, pow[0]);
  for (int k = 1; k < 4; ++k) {
    multiply(t0, t1, t2, r[0], r[1], r[2], s1, s2);
    split26(t0, t1, t2, pow[k]);
  }
  const std::uint64_t* const by_r4[4] = {pow[3], pow[3], pow[3], pow[3]};
  // Lanes hold blocks 0, 2, 1, 3 of a group: r^4, r^2, r^3, r.
  const std::uint64_t* const by_fold[4] = {pow[3], pow[1], pow[2], pow[0]};
  const Multiplier step = make_multiplier(by_r4);

  std::uint64_t start[5];
  split26(h[0], h[1], h[2], start);
  __m256i acc[5];
  for (int i = 0; i < 5; ++i) {
    acc[i] = _mm256_setr_epi64x(static_cast<long long>(start[i]), 0, 0, 0);
  }
  add_blocks_avx2(acc, p);
  std::size_t done = 64;
  for (; done + 64 <= n; done += 64) {
    multiply_avx2(acc, step);
    add_blocks_avx2(acc, p + done);
  }
  multiply_avx2(acc, make_multiplier(by_fold));

  std::uint64_t sum[5];
  for (int i = 0; i < 5; ++i) {
    alignas(32) std::uint64_t lane[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane), acc[i]);
    sum[i] = lane[0] + lane[1] + lane[2] + lane[3];
  }
  join44(sum, h);
  return done;
}

#undef REX_AVX2

/// Below this many bytes the scalar loop beats the kernel's set-up (three
/// key powers and a final fold).
constexpr std::size_t kVectorMinBytes = 8 * 16;

#endif  // REX_POLY_X86

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
  const std::uint64_t s1 = r1 * (5 << 2);
  const std::uint64_t s2 = r2 * (5 << 2);
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (; n >= 16; n -= 16, blocks += 16) {
    const std::uint64_t t0 = load_le64(blocks);
    const std::uint64_t t1 = load_le64(blocks + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;
    multiply(h0, h1, h2, r0, r1, r2, s1, s2);
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
  std::size_t whole = n / 16 * 16;
#if REX_POLY_X86
  using linalg::simd::Backend;
  const Backend backend = whole >= kVectorMinBytes
                              ? linalg::simd::active_backend()
                              : Backend::kScalar;
  if (backend == Backend::kAvx2 || backend == Backend::kAvx512) {
    const std::size_t done = absorb_avx2(h_, r_, p, whole);
    p += done;
    n -= done;
    whole -= done;
  }
#endif
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
