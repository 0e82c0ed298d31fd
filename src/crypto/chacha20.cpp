#include "crypto/chacha20.hpp"

#include <algorithm>
#include <cstring>

#include "linalg/simd_kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define REX_CHACHA_X86 1
#include <immintrin.h>
#endif

namespace rex::crypto {

namespace {

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

/// The RFC 8439 §2.3 input state: constants, key, counter, nonce.
void init_state(std::uint32_t state[16], const ChaChaKey& key,
                std::uint32_t counter, const ChaChaNonce& nonce) {
  // "expand 32-byte k"
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);
}

void xor_scalar(const ChaChaKey& key, const ChaChaNonce& nonce,
                std::uint32_t counter, const std::uint8_t* in,
                std::uint8_t* out, std::size_t n) {
  std::uint8_t keystream[64];
  while (n > 0) {
    chacha20_block(key, counter++, nonce, keystream);
    const std::size_t take = std::min<std::size_t>(64, n);
    for (std::size_t i = 0; i < take; ++i) out[i] = in[i] ^ keystream[i];
    in += take;
    out += take;
    n -= take;
  }
}

#if REX_CHACHA_X86

// ===== AVX2 keystream: eight blocks per pass =====
//
// Vector i holds state word i of eight consecutive blocks (lane j = block
// counter + j), so one quarter round on vectors is eight scalar quarter
// rounds. Lane adds wrap mod 2^32 exactly like the scalar counter. After
// the rounds an 8x8 transpose of each half-state turns lanes back into
// blocks, which x86's little-endian stores lay out as RFC 8439 bytes.

#define REX_AVX2 __attribute__((target("avx2")))

template <int N>
REX_AVX2 inline __m256i rotl_avx2(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, N),
                         _mm256_srli_epi32(x, 32 - N));
}

REX_AVX2 inline void quarter_round_avx2(__m256i& a, __m256i& b, __m256i& c,
                                        __m256i& d, __m256i rot16,
                                        __m256i rot8) {
  // Rotations by 16 and 8 move whole bytes: one shuffle instead of three
  // shift/or ops.
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = rotl_avx2<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = rotl_avx2<7>(_mm256_xor_si256(b, c));
}

/// Transposes eight vectors of eight 32-bit lanes in place: afterwards
/// v[j] holds lane j of every input vector, in input order.
REX_AVX2 inline void transpose8x8(__m256i v[8]) {
  const __m256i t0 = _mm256_unpacklo_epi32(v[0], v[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(v[0], v[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(v[2], v[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(v[2], v[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(v[4], v[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(v[4], v[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(v[6], v[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(v[6], v[7]);
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  v[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  v[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  v[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  v[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  v[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  v[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  v[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  v[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

REX_AVX2 inline void xor32(const std::uint8_t* in, std::uint8_t* out,
                           __m256i keystream) {
  const __m256i data =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_xor_si256(data, keystream));
}

/// XORs every whole 512-byte chunk of `in`; returns the bytes consumed.
REX_AVX2 std::size_t xor_avx2(const std::uint32_t state[16],
                              const std::uint8_t* in, std::uint8_t* out,
                              std::size_t n) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  __m256i input[16];
  for (int i = 0; i < 16; ++i) {
    input[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
  }
  input[12] = _mm256_add_epi32(input[12],
                               _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  std::size_t done = 0;
  for (; done + 512 <= n; done += 512) {
    __m256i x[16];
    for (int i = 0; i < 16; ++i) x[i] = input[i];
    for (int round = 0; round < 10; ++round) {
      quarter_round_avx2(x[0], x[4], x[8], x[12], rot16, rot8);
      quarter_round_avx2(x[1], x[5], x[9], x[13], rot16, rot8);
      quarter_round_avx2(x[2], x[6], x[10], x[14], rot16, rot8);
      quarter_round_avx2(x[3], x[7], x[11], x[15], rot16, rot8);
      quarter_round_avx2(x[0], x[5], x[10], x[15], rot16, rot8);
      quarter_round_avx2(x[1], x[6], x[11], x[12], rot16, rot8);
      quarter_round_avx2(x[2], x[7], x[8], x[13], rot16, rot8);
      quarter_round_avx2(x[3], x[4], x[9], x[14], rot16, rot8);
    }
    for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], input[i]);
    transpose8x8(x);      // x[j]: words 0..7 of block j
    transpose8x8(x + 8);  // x[8 + j]: words 8..15 of block j
    for (std::size_t j = 0; j < 8; ++j) {
      const std::size_t at = done + 64 * j;
      xor32(in + at, out + at, x[j]);
      xor32(in + at + 32, out + at + 32, x[8 + j]);
    }
    input[12] = _mm256_add_epi32(input[12], _mm256_set1_epi32(8));
  }
  return done;
}

#undef REX_AVX2

#endif  // REX_CHACHA_X86

}  // namespace

void chacha20_block(const ChaChaKey& key, std::uint32_t counter,
                    const ChaChaNonce& nonce, std::uint8_t out[64]) {
  std::uint32_t state[16];
  init_state(state, key, counter, nonce);

  std::uint32_t working[16];
  std::memcpy(working, state, sizeof working);
  for (int round = 0; round < 10; ++round) {
    quarter_round(working[0], working[4], working[8], working[12]);
    quarter_round(working[1], working[5], working[9], working[13]);
    quarter_round(working[2], working[6], working[10], working[14]);
    quarter_round(working[3], working[7], working[11], working[15]);
    quarter_round(working[0], working[5], working[10], working[15]);
    quarter_round(working[1], working[6], working[11], working[12]);
    quarter_round(working[2], working[7], working[8], working[13]);
    quarter_round(working[3], working[4], working[9], working[14]);
  }
  for (int i = 0; i < 16; ++i) {
    store_le32(out + 4 * i, working[i] + state[i]);
  }
}

void chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                  std::uint32_t initial_counter, BytesView in,
                  std::uint8_t* out) {
  std::size_t done = 0;
#if REX_CHACHA_X86
  if (linalg::simd::active_backend() == linalg::simd::Backend::kAvx2) {
    std::uint32_t state[16];
    init_state(state, key, initial_counter, nonce);
    done = xor_avx2(state, in.data(), out, in.size());
  }
#endif
  // Tail (and the whole message off AVX2): 64 keystream bytes per block.
  xor_scalar(key, nonce,
             initial_counter + static_cast<std::uint32_t>(done / 64),
             in.data() + done, out + done, in.size() - done);
}

}  // namespace rex::crypto
