#include "crypto/x25519.hpp"

#include <cstring>

namespace rex::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Field element in GF(2^255 - 19), five 51-bit limbs: sum of v[i] 2^(51 i).
//
// Limb bounds. Limbs are unsigned and only loosely reduced, so the
// operations below state what their inputs may hold and what they return.
// "Reduced" means limbs < R = 2^51 + 2^13: what fe_mul, fe_sq and
// fe_from_bytes return. fe_mul and fe_sq accept limb bounds A and B with
// A, B <= 2^57 and A * B <= 2^108 (see fe_reduce_wide). Each call site of
// the ladder and of the Edwards formulas notes its operands' bounds; the
// largest product, in ge_dbl, is 2^53.4 * 2^53.6 = 2^107.
struct Fe {
  u64 v[5];
};

constexpr u64 kMask51 = 0x7ffffffffffffULL;

Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }

// Limbs < A + B.
Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

// a - b, with 2p added first so limbs stay non-negative: b's limbs must
// be <= 2^52 - 38 (2p's smallest limb), which any reduced b is. Limbs
// < A + 2^52.
Fe fe_sub(const Fe& a, const Fe& b) {
  static constexpr u64 two_p[5] = {0xfffffffffffdaULL, 0xffffffffffffeULL,
                                   0xffffffffffffeULL, 0xffffffffffffeULL,
                                   0xffffffffffffeULL};
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + two_p[i] - b.v[i];
  return r;
}

// a - b with 4p added first, for a b that is a sum or difference of
// reduced elements (limbs up to 2^53 - 76, 4p's smallest limb). Limbs
// < A + 2^53.
Fe fe_sub_4p(const Fe& a, const Fe& b) {
  static constexpr u64 four_p[5] = {0x1fffffffffffb4ULL, 0x1ffffffffffffcULL,
                                    0x1ffffffffffffcULL, 0x1ffffffffffffcULL,
                                    0x1ffffffffffffcULL};
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + four_p[i] - b.v[i];
  return r;
}

// Carries the five 128-bit column sums of a product into a reduced
// element. For inputs bounded by A and B (A * B <= 2^108), column 0 holds
// a0 b0 plus four wraparound terms times 19, so t0 < 77 A B < 2^115 and
// every t_k >> 51 fits 64 bits; column 4 holds five plain terms, so
// t4 < 5 A B + (carry in) < 2^110.4, and 19 (t4 >> 51) + 2^51 < 2^64.
// Limb 0's last carry is then < 2^13, which bounds limb 1 by R.
Fe fe_reduce_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe r;
  u64 carry;
  r.v[0] = static_cast<u64>(t0) & kMask51;
  carry = static_cast<u64>(t0 >> 51);
  t1 += carry;
  r.v[1] = static_cast<u64>(t1) & kMask51;
  carry = static_cast<u64>(t1 >> 51);
  t2 += carry;
  r.v[2] = static_cast<u64>(t2) & kMask51;
  carry = static_cast<u64>(t2 >> 51);
  t3 += carry;
  r.v[3] = static_cast<u64>(t3) & kMask51;
  carry = static_cast<u64>(t3 >> 51);
  t4 += carry;
  r.v[4] = static_cast<u64>(t4) & kMask51;
  carry = static_cast<u64>(t4 >> 51);
  r.v[0] += carry * 19;
  carry = r.v[0] >> 51;
  r.v[0] &= kMask51;
  r.v[1] += carry;
  return r;
}

Fe fe_mul(const Fe& a, const Fe& b) {
  const u128 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  // 19 * b_i for the wraparound terms (< 2^62 for B <= 2^57).
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;
  return fe_reduce_wide(
      a0 * b0 + a1 * b4_19 + a2 * b3_19 + a3 * b2_19 + a4 * b1_19,
      a0 * b1 + a1 * b0 + a2 * b4_19 + a3 * b3_19 + a4 * b2_19,
      a0 * b2 + a1 * b1 + a2 * b0 + a3 * b4_19 + a4 * b3_19,
      a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a4 * b4_19,
      a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0);
}

// fe_mul(a, a) with the symmetric cross terms folded: 15 products instead
// of 25. The column sums, and so the bounds, are fe_mul's with B = A.
Fe fe_sq(const Fe& a) {
  const u128 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 d0 = a.v[0] * 2, d1 = a.v[1] * 2;
  const u64 d2_19 = a.v[2] * 38, d4_19 = a.v[4] * 38;
  const u64 a3_19 = a.v[3] * 19, a4_19 = a.v[4] * 19;
  return fe_reduce_wide(a0 * a0 + a1 * d4_19 + a3 * d2_19,
                        a1 * d0 + a2 * d4_19 + a3 * a3_19,
                        a2 * d0 + a1 * a1 + a3 * d4_19,
                        a3 * d0 + a2 * d1 + a4 * a4_19,
                        a4 * d0 + a3 * d1 + a2 * a2);
}

// a * 121666 (the (A-2)/4 ladder constant). For limbs < 2^52.6 each
// product is < 2^69.6, so limbs < 2^51 + 19 * 2^18.6 < 2^51 + 2^23.
Fe fe_mul121666(const Fe& a) {
  Fe r;
  u128 t;
  u64 carry = 0;
  for (int i = 0; i < 5; ++i) {
    t = static_cast<u128>(a.v[i]) * 121666 + carry;
    r.v[i] = static_cast<u64>(t) & kMask51;
    carry = static_cast<u64>(t >> 51);
  }
  r.v[0] += carry * 19;
  return r;
}

// Limbs < 2^51.
Fe fe_from_bytes(const std::uint8_t s[32]) {
  Fe r;
  r.v[0] = load_le64(s) & kMask51;
  r.v[1] = (load_le64(s + 6) >> 3) & kMask51;
  r.v[2] = (load_le64(s + 12) >> 6) & kMask51;
  r.v[3] = (load_le64(s + 19) >> 1) & kMask51;
  r.v[4] = (load_le64(s + 24) >> 12) & kMask51;
  return r;
}

void fe_to_bytes(std::uint8_t out[32], const Fe& a) {
  // Carry-reduce, then subtract p twice to fully freeze.
  Fe t = a;
  for (int pass = 0; pass < 2; ++pass) {
    u64 carry;
    for (int i = 0; i < 4; ++i) {
      carry = t.v[i] >> 51;
      t.v[i] &= kMask51;
      t.v[i + 1] += carry;
    }
    carry = t.v[4] >> 51;
    t.v[4] &= kMask51;
    t.v[0] += carry * 19;
  }
  // Now t < 2p; conditionally subtract p.
  t.v[0] += 19;
  u64 carry;
  for (int i = 0; i < 4; ++i) {
    carry = t.v[i] >> 51;
    t.v[i] &= kMask51;
    t.v[i + 1] += carry;
  }
  carry = t.v[4] >> 51;
  t.v[4] &= kMask51;
  t.v[0] += carry * 19;
  // t in [19, p+19]; subtract 19 -> canonical iff we add 2^255 and take mod.
  t.v[0] += (kMask51 - 18);
  for (int i = 1; i < 5; ++i) t.v[i] += kMask51;
  for (int i = 0; i < 4; ++i) {
    carry = t.v[i] >> 51;
    t.v[i] &= kMask51;
    t.v[i + 1] += carry;
  }
  t.v[4] &= kMask51;

  store_le64(out, t.v[0] | (t.v[1] << 51));
  store_le64(out + 8, (t.v[1] >> 13) | (t.v[2] << 38));
  store_le64(out + 16, (t.v[2] >> 26) | (t.v[3] << 25));
  store_le64(out + 24, (t.v[3] >> 39) | (t.v[4] << 12));
}

// Constant-time conditional swap: swaps a and b when bit == 1.
void fe_cswap(u64 bit, Fe& a, Fe& b) {
  const u64 mask = 0 - bit;
  for (int i = 0; i < 5; ++i) {
    const u64 x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

// Constant-time conditional move: a = b when bit == 1.
void fe_cmov(u64 bit, Fe& a, const Fe& b) {
  const u64 mask = 0 - bit;
  for (int i = 0; i < 5; ++i) a.v[i] ^= mask & (a.v[i] ^ b.v[i]);
}

// a^(p-2) = a^-1 by Fermat; fixed square-and-multiply chain. Accepts limbs
// < 2^54 (its first step squares a); returns a reduced element.
Fe fe_invert(const Fe& z) {
  Fe z2 = fe_sq(z);                       // 2
  Fe t = fe_sq(z2);                       // 4
  t = fe_sq(t);                           // 8
  Fe z9 = fe_mul(t, z);                   // 9
  Fe z11 = fe_mul(z9, z2);                // 11
  t = fe_sq(z11);                         // 22
  Fe z2_5_0 = fe_mul(t, z9);              // 31 = 2^5 - 1
  t = fe_sq(z2_5_0);
  for (int i = 0; i < 4; ++i) t = fe_sq(t);
  Fe z2_10_0 = fe_mul(t, z2_5_0);         // 2^10 - 1
  t = fe_sq(z2_10_0);
  for (int i = 0; i < 9; ++i) t = fe_sq(t);
  Fe z2_20_0 = fe_mul(t, z2_10_0);        // 2^20 - 1
  t = fe_sq(z2_20_0);
  for (int i = 0; i < 19; ++i) t = fe_sq(t);
  t = fe_mul(t, z2_20_0);                 // 2^40 - 1
  t = fe_sq(t);
  for (int i = 0; i < 9; ++i) t = fe_sq(t);
  Fe z2_50_0 = fe_mul(t, z2_10_0);        // 2^50 - 1
  t = fe_sq(z2_50_0);
  for (int i = 0; i < 49; ++i) t = fe_sq(t);
  Fe z2_100_0 = fe_mul(t, z2_50_0);       // 2^100 - 1
  t = fe_sq(z2_100_0);
  for (int i = 0; i < 99; ++i) t = fe_sq(t);
  t = fe_mul(t, z2_100_0);                // 2^200 - 1
  t = fe_sq(t);
  for (int i = 0; i < 49; ++i) t = fe_sq(t);
  t = fe_mul(t, z2_50_0);                 // 2^250 - 1
  t = fe_sq(t);
  t = fe_sq(t);
  t = fe_sq(t);
  t = fe_sq(t);
  t = fe_sq(t);                           // 2^255 - 32
  return fe_mul(t, z11);                  // 2^255 - 21 = p - 2
}

std::array<std::uint8_t, 32> clamp_scalar(const X25519Key& scalar) {
  std::array<std::uint8_t, 32> e;
  std::memcpy(e.data(), scalar.data(), 32);
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;
  return e;
}

// ===== Fixed-base multiplication on the Edwards form =====
//
// Curve25519 is birationally equivalent to the twisted Edwards curve
// -x^2 + y^2 = 1 + d x^2 y^2, d = -121665/121666, under u = (1+y)/(1-y)
// (RFC 7748 §4.1), and RFC 8032's base point B = (x, 4/5) maps to u = 9.
// So scalar * 9 on the Montgomery curve is u(scalar * B), which a comb
// of precomputed multiples of B computes in 64 additions and 4 doublings
// instead of 255 ladder steps (the ref10 / libsodium method).

// Extended coordinates: x = X/Z, y = Y/Z, xy = T/Z. Reduced limbs.
struct Ge {
  Fe x, y, z, t;
};

// An affine point as the mixed addition consumes it.
struct GePrecomp {
  Fe yplusx, yminusx, xy2d;
};

// p + q (add-2008-hwcd-3 with a = -1, k = 2d, Z2 = 1; complete, so it also
// doubles and adds the identity). q's limbs: y+x and y-x < 2^52.6, 2dxy
// < 2^52 (ge_select's bounds; ge_precomp's are tighter). Returns reduced.
Ge ge_madd(const Ge& p, const GePrecomp& q) {
  const Fe a = fe_mul(fe_add(p.y, p.x), q.yplusx);   // 2^52.1 * 2^52.6
  const Fe b = fe_mul(fe_sub(p.y, p.x), q.yminusx);  // 2^52.6 * 2^52.6
  const Fe c = fe_mul(q.xy2d, p.t);                  // 2^52 * R
  const Fe d = fe_add(p.z, p.z);                     // < 2^52.1
  const Fe e = fe_sub(a, b);                         // < 2^52.6
  const Fe f = fe_sub(d, c);                         // < 2^53.1
  const Fe g = fe_add(d, c);                         // < 2^52.6
  const Fe h = fe_add(a, b);                         // < 2^52.1
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(g, f), fe_mul(e, h)};
}

// 2p (dbl-2008-hwcd with a = -1). Returns reduced. The four outputs are
// those formulas' X3, Y3, Z3, T3 all negated: the same projective point.
Ge ge_dbl(const Ge& p) {
  const Fe xx = fe_sq(p.x);
  const Fe yy = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe zz2 = fe_add(zz, zz);                  // 2Z^2 < 2^52.1
  const Fe sum = fe_add(yy, xx);                  // -H < 2^52.1
  const Fe diff = fe_sub(yy, xx);                 // G < 2^52.6
  // 4p offsets: both subtrahends can exceed 2p's limbs.
  const Fe e = fe_sub_4p(fe_sq(fe_add(p.x, p.y)), sum);  // E < 2^53.4
  const Fe f = fe_sub_4p(zz2, diff);                     // -F < 2^53.6
  return Ge{fe_mul(e, f), fe_mul(diff, sum), fe_mul(diff, f), fe_mul(e, sum)};
}

// Normalizes p to affine (one inversion). Limbs: y+x < 2^52.1, y-x
// < 2^52.6, 2dxy reduced.
GePrecomp ge_precomp(const Ge& p, const Fe& d2) {
  const Fe zi = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zi);
  const Fe y = fe_mul(p.y, zi);
  return GePrecomp{fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), d2)};
}

// Row i, entry j: (j + 1) * 256^i * B. 32 rows of 8, 30 KiB.
using CombTable = std::array<std::array<GePrecomp, 8>, 32>;

// Built from B once, at first use; it depends on no secret.
const CombTable& comb_table() {
  static const CombTable table = [] {
    // RFC 8032 §5.1: B's x, the even root, little-endian.
    static constexpr std::uint8_t kBaseX[32] = {
        0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25,
        0x95, 0x60, 0xc7, 0x2c, 0x69, 0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2,
        0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21};
    const Fe d = fe_mul(fe_sub(fe_zero(), Fe{{121665, 0, 0, 0, 0}}),
                        fe_invert(Fe{{121666, 0, 0, 0, 0}}));
    const Fe d2 = fe_add(d, d);
    const Fe x = fe_from_bytes(kBaseX);
    const Fe y = fe_mul(Fe{{4, 0, 0, 0, 0}}, fe_invert(Fe{{5, 0, 0, 0, 0}}));
    Ge row_base{x, y, fe_one(), fe_mul(x, y)};  // 256^i * B
    CombTable t;
    for (auto& row : t) {
      row[0] = ge_precomp(row_base, d2);
      Ge multiple = row_base;
      for (std::size_t j = 1; j < row.size(); ++j) {
        multiple = ge_madd(multiple, row[0]);
        row[j] = ge_precomp(multiple, d2);
      }
      for (int k = 0; k < 8; ++k) row_base = ge_dbl(row_base);
    }
    return t;
  }();
  return table;
}

// digit * row[0] for a secret digit in [-8, 8]: scans all eight entries
// with masks, never branching or indexing on the digit. Digit 0 gives the
// identity (1, 1, 0); a negative one swaps y+x with y-x and negates 2dxy.
GePrecomp ge_select(const std::array<GePrecomp, 8>& row, std::int8_t digit) {
  const std::int64_t b = digit;
  const u64 negative = static_cast<u64>(b) >> 63;
  const u64 magnitude =
      static_cast<u64>(b ^ -static_cast<std::int64_t>(negative)) + negative;
  GePrecomp t{fe_one(), fe_one(), fe_zero()};
  for (u64 j = 0; j < row.size(); ++j) {
    const u64 hit = ((magnitude ^ (j + 1)) - 1) >> 63;  // magnitude == j + 1
    fe_cmov(hit, t.yplusx, row[j].yplusx);
    fe_cmov(hit, t.yminusx, row[j].yminusx);
    fe_cmov(hit, t.xy2d, row[j].xy2d);
  }
  const Fe plus = t.yplusx;
  fe_cmov(negative, t.yplusx, t.yminusx);
  fe_cmov(negative, t.yminusx, plus);
  fe_cmov(negative, t.xy2d, fe_sub(fe_zero(), t.xy2d));  // < 2^52
  return t;
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  const std::array<std::uint8_t, 32> e = clamp_scalar(scalar);

  std::uint8_t u[32];
  std::memcpy(u, point.data(), 32);
  u[31] &= 127;  // mask the unused top bit per RFC 7748

  // Bounds: x2, z2, x3, z3 and x1 are reduced at the top of every step.
  const Fe x1 = fe_from_bytes(u);
  Fe x2 = fe_one(), z2 = fe_zero();
  Fe x3 = x1, z3 = fe_one();
  u64 swap = 0;

  for (int t = 254; t >= 0; --t) {
    const u64 k_t = (e[t >> 3] >> (t & 7)) & 1;
    swap ^= k_t;
    fe_cswap(swap, x2, x3);
    fe_cswap(swap, z2, z3);
    swap = k_t;

    const Fe a = fe_add(x2, z2);    // < 2^52.1
    const Fe aa = fe_sq(a);
    const Fe b = fe_sub(x2, z2);    // < 2^52.6
    const Fe bb = fe_sq(b);
    const Fe e_ = fe_sub(aa, bb);   // < 2^52.6
    const Fe c = fe_add(x3, z3);    // < 2^52.1
    const Fe d = fe_sub(x3, z3);    // < 2^52.6
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));              // 2^52.1 squared
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));  // 2^52.6 squared
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e_, fe_add(bb, fe_mul121666(e_)));  // 2^52.6 * 2^52.1
  }
  fe_cswap(swap, x2, x3);
  fe_cswap(swap, z2, z3);

  const Fe result = fe_mul(x2, fe_invert(z2));
  X25519Key out;
  fe_to_bytes(out.data(), result);
  return out;
}

X25519Key x25519_public_key(const X25519Key& private_key) {
  const std::array<std::uint8_t, 32> e = clamp_scalar(private_key);

  // 64 signed radix-16 digits in [-8, 8]: the clamped scalar's top nibble
  // is at most 7, so the last carry leaves digit 63 at most 8.
  std::int8_t digit[64];
  for (int i = 0; i < 32; ++i) {
    digit[2 * i] = static_cast<std::int8_t>(e[i] & 15);
    digit[2 * i + 1] = static_cast<std::int8_t>(e[i] >> 4);
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int v = digit[i] + carry;
    carry = (v + 8) >> 4;
    digit[i] = static_cast<std::int8_t>(v - carry * 16);
  }
  digit[63] = static_cast<std::int8_t>(digit[63] + carry);

  // scalar * B = sum_i digit[i] 16^i B. Row i of the comb holds multiples
  // of 256^i B, so add the odd digits' terms first, multiply by 16, then
  // add the even ones'.
  const CombTable& table = comb_table();
  Ge h{fe_zero(), fe_one(), fe_one(), fe_zero()};  // the identity
  for (int i = 1; i < 64; i += 2) {
    h = ge_madd(h, ge_select(table[i / 2], digit[i]));
  }
  for (int k = 0; k < 4; ++k) h = ge_dbl(h);
  for (int i = 0; i < 64; i += 2) {
    h = ge_madd(h, ge_select(table[i / 2], digit[i]));
  }

  // u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y). B has prime order
  // L > 2^252 and a clamped scalar is 8k with 0 < k < 2^252, so the result
  // is never the identity (the one point with y = 1) and Z - Y is nonzero.
  const Fe u = fe_mul(fe_add(h.z, h.y), fe_invert(fe_sub(h.z, h.y)));
  X25519Key out;
  fe_to_bytes(out.data(), u);
  return out;
}

bool x25519_shared_secret(const X25519Key& private_key,
                          const X25519Key& peer_public, X25519Key& out) {
  out = x25519(private_key, peer_public);
  std::uint8_t acc = 0;
  for (std::uint8_t byte : out) acc |= byte;
  if (acc == 0) {
    out.fill(0);
    return false;
  }
  return true;
}

}  // namespace rex::crypto
