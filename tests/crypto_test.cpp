// Crypto library tests, pinned against published test vectors:
//  - SHA-256: FIPS 180-4 / NIST examples
//  - HMAC-SHA256: RFC 4231
//  - HKDF: RFC 5869
//  - ChaCha20, Poly1305, AEAD: RFC 8439
//  - X25519: RFC 7748
// plus property tests (round-trips, tamper detection, DH commutativity) and
// path equivalence: on each vector path of the linalg::simd dispatcher
// (kAvx2, kAvx512) the ChaCha20 keystream, the Poly1305 tag and the sealed
// AEAD bytes must equal the scalar reference's. A path the CPU lacks is
// skipped with the missing feature named.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "linalg/simd_kernels.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace rex::crypto {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
  return bytes;
}

PolyKey random_poly_key(Rng& rng) {
  const Bytes bytes = random_bytes(rng, kPolyKeySize);
  PolyKey key;
  std::copy(bytes.begin(), bytes.end(), key.begin());
  return key;
}

Bytes keystream_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                    std::uint32_t counter, BytesView in) {
  Bytes out(in.size());
  chacha20_xor(key, nonce, counter, in, out.data());
  return out;
}

using linalg::simd::Backend;

/// The CPU feature `path` needs that this CPU lacks, or nullptr.
const char* missing_feature(Backend path) {
#if defined(__x86_64__) || defined(_M_X64)
  if (!__builtin_cpu_supports("avx2")) return "avx2";
  if (path == Backend::kAvx512 && !__builtin_cpu_supports("avx512f")) {
    return "avx512f";
  }
  return nullptr;
#else
  return path == Backend::kAvx512 ? "avx512f (not x86-64)"
                                  : "avx2 (not x86-64)";
#endif
}

/// One vector path of the cipher and MAC, compared with the scalar
/// reference (the REX_SCALAR_KERNELS path).
class VectorPath : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (const char* missing = missing_feature(GetParam())) {
      GTEST_SKIP() << "CPU lacks " << missing << ": "
                   << linalg::simd::backend_name(GetParam())
                   << " path not tested";
    }
  }

  /// Runs `op` on this path, then on the scalar path; restores the
  /// dispatch after.
  template <class Op>
  auto on_path_and_scalar(Op&& op) -> std::pair<decltype(op()),
                                                decltype(op())> {
    const Backend dispatched = linalg::simd::active_backend();
    linalg::simd::set_backend(GetParam());
    auto path_out = op();
    linalg::simd::set_backend(Backend::kScalar);
    auto scalar_out = op();
    linalg::simd::set_backend(dispatched);
    return {std::move(path_out), std::move(scalar_out)};
  }
};

INSTANTIATE_TEST_SUITE_P(Paths, VectorPath,
                         ::testing::Values(Backend::kAvx2, Backend::kAvx512),
                         [](const auto& info) {
                           return std::string(
                               linalg::simd::backend_name(info.param));
                         });

/// The Poly1305 tag of `msg` fed in three pieces split at `a` <= `b`.
PolyTag mac_in_pieces(const PolyKey& key, BytesView msg, std::size_t a,
                      std::size_t b) {
  Poly1305 mac(key);
  mac.update(msg.first(a));
  mac.update(msg.subspan(a, b - a));
  mac.update(msg.subspan(b));
  return mac.finish();
}

std::string digest_hex(const Sha256Digest& d) {
  return hex_encode(BytesView(d.data(), d.size()));
}

template <std::size_t N>
std::array<std::uint8_t, N> array_from_hex(std::string_view hex) {
  const Bytes b = hex_decode(hex);
  std::array<std::uint8_t, N> out{};
  EXPECT_EQ(b.size(), N);
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(
      digest_hex(sha256(to_bytes(""))),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(
      digest_hex(sha256(to_bytes("abc"))),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      digest_hex(sha256(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(to_bytes(chunk));
  EXPECT_EQ(
      digest_hex(h.finish()),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingEqualsOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(BytesView(data.data(), split));
    h.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), sha256(data)) << "split at " << split;
  }
}

TEST(Sha256, PaddingBoundaries) {
  // Messages of length 55, 56, 63, 64, 65 exercise every padding branch.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(to_bytes(msg));
    Sha256 b;
    for (char c : msg) {
      const std::uint8_t byte = static_cast<std::uint8_t>(c);
      b.update(BytesView(&byte, 1));
    }
    EXPECT_EQ(a.finish(), b.finish()) << "length " << len;
  }
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(
      digest_hex(hmac_sha256(key, to_bytes("Hi There"))),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      digest_hex(hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      digest_hex(hmac_sha256(
          key, to_bytes("Test Using Larger Than Block-Size Key - "
                        "Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = hex_decode("000102030405060708090a0b0c");
  const Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(hex_encode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, OutputLengthRespected) {
  for (std::size_t len : {1u, 31u, 32u, 33u, 64u, 255u}) {
    EXPECT_EQ(hkdf({}, to_bytes("ikm"), to_bytes("info"), len).size(), len);
  }
}

TEST(ConstantTimeEqual, Behaviour) {
  EXPECT_TRUE(constant_time_equal(to_bytes("same"), to_bytes("same")));
  EXPECT_FALSE(constant_time_equal(to_bytes("same"), to_bytes("SAME")));
  EXPECT_FALSE(constant_time_equal(to_bytes("short"), to_bytes("longer")));
  EXPECT_TRUE(constant_time_equal({}, {}));
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  const auto key = array_from_hex<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = array_from_hex<12>("000000090000004a00000000");
  std::uint8_t block[64];
  chacha20_block(key, 1, nonce, block);
  EXPECT_EQ(hex_encode(BytesView(block, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  const auto key = array_from_hex<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const auto nonce = array_from_hex<12>("000000000000004a00000000");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const Bytes ct = keystream_xor(key, nonce, 1, to_bytes(plaintext));
  EXPECT_EQ(hex_encode(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, XorIsInvolution) {
  const auto key = array_from_hex<32>(
      "1111111111111111111111111111111111111111111111111111111111111111");
  const ChaChaNonce nonce{};
  const Bytes msg = to_bytes("raw data sharing redemption");
  EXPECT_EQ(keystream_xor(key, nonce, 7, keystream_xor(key, nonce, 7, msg)),
            msg);
}

TEST_P(VectorPath, ChaCha20MatchesScalarAtEveryLength) {
  // Every length 0..2100 covers one and two 16-block passes, an 8-block
  // pass after one, and every block and byte remainder after each.
  Rng rng(21);
  Drbg drbg(21);
  const ChaChaKey key = drbg.next_key();
  const ChaChaNonce nonce = nonce_from_sequence(9, 0);
  const Bytes msg = random_bytes(rng, 2100);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const BytesView in(msg.data(), len);
    const auto [path_out, scalar_out] =
        on_path_and_scalar([&] { return keystream_xor(key, nonce, 1, in); });
    ASSERT_EQ(path_out, scalar_out) << "length " << len;
  }
}

TEST_P(VectorPath, ChaCha20MatchesScalarOnLongMessages) {
  Rng rng(22);
  Drbg drbg(22);
  for (int trial = 0; trial < 24; ++trial) {
    const ChaChaKey key = drbg.next_key();
    const ChaChaNonce nonce = nonce_from_sequence(rng.next_u64(), 1);
    const auto counter = static_cast<std::uint32_t>(rng.uniform(1u << 20));
    const Bytes msg = random_bytes(rng, rng.uniform(70 * 1024 + 1));
    const auto [path_out, scalar_out] = on_path_and_scalar(
        [&] { return keystream_xor(key, nonce, counter, msg); });
    ASSERT_EQ(path_out, scalar_out)
        << "length " << msg.size() << " counter " << counter;
  }
}

TEST_P(VectorPath, ChaCha20CounterWrapMatchesBlockFunction) {
  // RFC 8439's block counter is 32 bits: a message that runs past 2^32 - 1
  // continues at block 0 of the same nonce. Every path must wrap there,
  // block for block, like chacha20_block itself. 1,600 bytes take a
  // 16-block pass, an 8-block pass and a scalar block on kAvx512, so the
  // wrap lands inside each kind of pass.
  Rng rng(23);
  Drbg drbg(23);
  const ChaChaKey key = drbg.next_key();
  const ChaChaNonce nonce = nonce_from_sequence(77, 0);
  const Bytes msg = random_bytes(rng, 1600);
  for (std::uint32_t back = 0; back <= 25; ++back) {
    const std::uint32_t counter = 0xffffffffu - back;
    const auto [path_out, scalar_out] = on_path_and_scalar(
        [&] { return keystream_xor(key, nonce, counter, msg); });
    ASSERT_EQ(path_out, scalar_out) << "counter " << counter;
    for (std::size_t at = 0; at < msg.size(); at += 64) {
      std::uint8_t block[64];
      chacha20_block(key, counter + static_cast<std::uint32_t>(at / 64),
                     nonce, block);
      for (std::size_t i = at; i < std::min(msg.size(), at + 64); ++i) {
        ASSERT_EQ(path_out[i], msg[i] ^ block[i - at])
            << "counter " << counter << " byte " << i;
      }
    }
  }
}

TEST_P(VectorPath, Poly1305MatchesScalarAtEveryLength) {
  Rng rng(24);
  const PolyKey key = random_poly_key(rng);
  const Bytes msg = random_bytes(rng, 1100);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const auto [path_tag, scalar_tag] = on_path_and_scalar(
        [&] { return poly1305(key, BytesView(msg.data(), len)); });
    ASSERT_EQ(path_tag, scalar_tag) << "length " << len;
  }
}

TEST_P(VectorPath, Poly1305MatchesScalarAtEveryStreamSplit) {
  // Three pieces split at every a <= b: the vector path then starts from a
  // non-zero accumulator, behind a partial block buffer, or both.
  Rng rng(25);
  const PolyKey key = random_poly_key(rng);
  const Bytes msg = random_bytes(rng, 400);
  for (std::size_t a = 0; a <= msg.size(); ++a) {
    for (std::size_t b = a; b <= msg.size(); ++b) {
      const auto [path_tag, scalar_tag] =
          on_path_and_scalar([&] { return mac_in_pieces(key, msg, a, b); });
      ASSERT_EQ(path_tag, scalar_tag) << "splits at " << a << ", " << b;
    }
  }
}

TEST_P(VectorPath, Poly1305MatchesScalarAtExtremeLimbs) {
  // r clamped to its largest value and all-ones blocks push every limb
  // product and carry to its bound, on one-shot and streamed messages.
  PolyKey key;
  key.fill(0xff);
  const Bytes msg(1100, 0xff);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const auto [path_tag, scalar_tag] = on_path_and_scalar(
        [&] { return poly1305(key, BytesView(msg.data(), len)); });
    ASSERT_EQ(path_tag, scalar_tag) << "length " << len;
  }
  const BytesView streamed(msg.data(), 400);
  for (std::size_t a = 0; a <= streamed.size(); ++a) {
    for (std::size_t b = a; b <= streamed.size(); ++b) {
      const auto [path_tag, scalar_tag] = on_path_and_scalar(
          [&] { return mac_in_pieces(key, streamed, a, b); });
      ASSERT_EQ(path_tag, scalar_tag) << "splits at " << a << ", " << b;
    }
  }
}

TEST_P(VectorPath, AeadSealAndOpenMatchScalar) {
  Rng rng(26);
  Drbg drbg(26);
  const ChaChaKey key = drbg.next_key();
  for (std::size_t len : {0u, 1u, 100u, 1023u, 3608u, 65536u, 70001u}) {
    const ChaChaNonce nonce = nonce_from_sequence(len, 0);
    const Bytes aad = random_bytes(rng, rng.uniform(40));
    const Bytes plaintext = random_bytes(rng, len);
    const auto [path_sealed, scalar_sealed] = on_path_and_scalar(
        [&] { return aead_seal(key, nonce, aad, plaintext); });
    ASSERT_EQ(path_sealed, scalar_sealed) << "length " << len;
    const auto [path_opened, scalar_opened] = on_path_and_scalar(
        [&] { return aead_open(key, nonce, aad, scalar_sealed); });
    ASSERT_TRUE(path_opened.has_value()) << "length " << len;
    EXPECT_EQ(*path_opened, plaintext) << "length " << len;
    EXPECT_EQ(path_opened, scalar_opened) << "length " << len;
  }
}

TEST(Poly1305, Rfc8439Vector) {
  const auto key = array_from_hex<32>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const PolyTag tag =
      poly1305(key, to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(hex_encode(BytesView(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, StreamingMatchesRfcVectorAtEverySplit) {
  const auto key = array_from_hex<32>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const Bytes msg = to_bytes("Cryptographic Forum Research Group");
  const std::string expected = "a8061dc1305136c6c22b8baf0c0127a9";
  for (std::size_t first = 0; first <= msg.size(); ++first) {
    for (std::size_t second = first; second <= msg.size(); ++second) {
      Poly1305 mac(key);
      mac.update(BytesView(msg.data(), first));
      mac.update(BytesView(msg.data() + first, second - first));
      mac.update(BytesView(msg.data() + second, msg.size() - second));
      const PolyTag tag = mac.finish();
      ASSERT_EQ(hex_encode(BytesView(tag.data(), tag.size())), expected)
          << "splits at " << first << ", " << second;
    }
  }
}

TEST(Poly1305, BlockBoundaries) {
  // Lengths around the 16-byte block edge all authenticate distinctly.
  const auto key = array_from_hex<32>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  PolyTag prev{};
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 32u, 33u}) {
    const Bytes msg(len, 0x42);
    const PolyTag tag = poly1305(key, msg);
    EXPECT_NE(tag, prev);
    prev = tag;
  }
}

TEST(Aead, Rfc8439Vector) {
  const auto key = array_from_hex<32>(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  const auto nonce = array_from_hex<12>("070000004041424344454647");
  const Bytes aad = hex_decode("50515253c0c1c2c3c4c5c6c7");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  const Bytes sealed = aead_seal(key, nonce, aad, to_bytes(plaintext));
  // ciphertext || tag
  EXPECT_EQ(hex_encode(BytesView(sealed.data() + sealed.size() - 16, 16)),
            "1ae10b594f09e26a7e902ecbd0600691");
  const auto opened = aead_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(to_string(*opened), plaintext);
}

TEST(Aead, DetectsTampering) {
  Drbg drbg(1);
  const ChaChaKey key = drbg.next_key();
  const ChaChaNonce nonce = nonce_from_sequence(5, 0);
  const Bytes aad = to_bytes("hdr");
  Bytes sealed = aead_seal(key, nonce, aad, to_bytes("secret ratings"));
  // Flip each byte in turn; every variant must fail to authenticate.
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    Bytes corrupted = sealed;
    corrupted[i] ^= 0x01;
    EXPECT_FALSE(aead_open(key, nonce, aad, corrupted).has_value())
        << "byte " << i;
  }
}

TEST(Aead, SealIntoAppendsTheSealedBytes) {
  Rng rng(31);
  Drbg drbg(31);
  const ChaChaKey key = drbg.next_key();
  const ChaChaNonce nonce = nonce_from_sequence(4, 0);
  const Bytes aad = random_bytes(rng, 8);
  for (std::size_t len : {0u, 1u, 100u, 3608u}) {
    const Bytes plaintext = random_bytes(rng, len);
    Bytes out = to_bytes("header");
    aead_seal_into(key, nonce, aad, plaintext, out);
    Bytes expected = to_bytes("header");
    append(expected, aead_seal(key, nonce, aad, plaintext));
    EXPECT_EQ(out, expected) << len;
  }
}

TEST(Aead, OpenIntoFailsClosedOnAnyFlippedBit) {
  // A flipped tag, ciphertext or aad bit must fail verification and leave
  // the caller's buffer exactly as it was: verification runs before any
  // plaintext byte is written.
  Rng rng(32);
  Drbg drbg(32);
  const ChaChaKey key = drbg.next_key();
  const ChaChaNonce nonce = nonce_from_sequence(6, 1);
  const Bytes aad = random_bytes(rng, 8);
  const Bytes plaintext = random_bytes(rng, 700);
  const Bytes sealed = aead_seal(key, nonce, aad, plaintext);
  const Bytes sentinel(5, 0xAB);

  Bytes out = sentinel;
  ASSERT_TRUE(aead_open_into(key, nonce, aad, sealed, out));
  Bytes expected = sentinel;
  append(expected, plaintext);
  EXPECT_EQ(out, expected);

  const auto expect_rejected = [&](BytesView bad_aad, BytesView bad_sealed,
                                   std::size_t bit) {
    Bytes target = sentinel;
    EXPECT_FALSE(aead_open_into(key, nonce, bad_aad, bad_sealed, target))
        << "bit " << bit;
    EXPECT_EQ(target, sentinel) << "bit " << bit;
  };
  const std::size_t ct_bits = (sealed.size() - kAeadTagSize) * 8;
  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    // Every tag bit; every seventh ciphertext bit keeps the sweep short.
    if (bit < ct_bits && bit % 7 != 0) continue;
    Bytes corrupted = sealed;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_rejected(aad, corrupted, bit);
  }
  for (std::size_t bit = 0; bit < aad.size() * 8; ++bit) {
    Bytes corrupted = aad;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_rejected(corrupted, sealed, bit);
  }
  Bytes target = sentinel;
  EXPECT_FALSE(aead_open_into(key, nonce, aad,
                              BytesView(sealed.data(), kAeadTagSize - 1),
                              target));
  EXPECT_EQ(target, sentinel);
}

TEST(Aead, DetectsWrongKeyNonceAad) {
  Drbg drbg(2);
  const ChaChaKey key = drbg.next_key();
  const ChaChaKey other_key = drbg.next_key();
  const ChaChaNonce nonce = nonce_from_sequence(1, 0);
  const Bytes sealed = aead_seal(key, nonce, to_bytes("a"), to_bytes("m"));
  EXPECT_FALSE(aead_open(other_key, nonce, to_bytes("a"), sealed).has_value());
  EXPECT_FALSE(
      aead_open(key, nonce_from_sequence(2, 0), to_bytes("a"), sealed)
          .has_value());
  EXPECT_FALSE(aead_open(key, nonce, to_bytes("b"), sealed).has_value());
  EXPECT_TRUE(aead_open(key, nonce, to_bytes("a"), sealed).has_value());
}

TEST(Aead, EmptyPlaintextAndAad) {
  Drbg drbg(3);
  const ChaChaKey key = drbg.next_key();
  const ChaChaNonce nonce{};
  const Bytes sealed = aead_seal(key, nonce, {}, {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  const auto opened = aead_open(key, nonce, {}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(Aead, RejectsTooShortCiphertext) {
  Drbg drbg(4);
  const ChaChaKey key = drbg.next_key();
  EXPECT_FALSE(aead_open(key, ChaChaNonce{}, {}, Bytes(7)).has_value());
}

TEST(Aead, NonceFromSequenceUnique) {
  std::set<std::string> seen;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    for (std::uint32_t dir = 0; dir < 2; ++dir) {
      const ChaChaNonce n = nonce_from_sequence(seq, dir);
      seen.insert(hex_encode(BytesView(n.data(), n.size())));
    }
  }
  EXPECT_EQ(seen.size(), 200u);
}

TEST(X25519, Rfc7748Vector1) {
  const auto scalar = array_from_hex<32>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const auto point = array_from_hex<32>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  const X25519Key out = x25519(scalar, point);
  EXPECT_EQ(hex_encode(BytesView(out.data(), out.size())),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  const auto scalar = array_from_hex<32>(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  const auto point = array_from_hex<32>(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  const X25519Key out = x25519(scalar, point);
  EXPECT_EQ(hex_encode(BytesView(out.data(), out.size())),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748BasePointAlice) {
  const auto alice_private = array_from_hex<32>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const X25519Key alice_public = x25519_public_key(alice_private);
  EXPECT_EQ(hex_encode(BytesView(alice_public.data(), alice_public.size())),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
}

TEST(X25519, Rfc7748SharedSecret) {
  const auto alice_private = array_from_hex<32>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const auto bob_private = array_from_hex<32>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  const X25519Key alice_public = x25519_public_key(alice_private);
  const X25519Key bob_public = x25519_public_key(bob_private);
  X25519Key k_alice{}, k_bob{};
  ASSERT_TRUE(x25519_shared_secret(alice_private, bob_public, k_alice));
  ASSERT_TRUE(x25519_shared_secret(bob_private, alice_public, k_bob));
  EXPECT_EQ(k_alice, k_bob);
  EXPECT_EQ(hex_encode(BytesView(k_alice.data(), k_alice.size())),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, DhCommutesForRandomKeys) {
  Drbg drbg(99);
  for (int i = 0; i < 8; ++i) {
    const X25519Key a = drbg.next_x25519_private();
    const X25519Key b = drbg.next_x25519_private();
    X25519Key k_ab{}, k_ba{};
    ASSERT_TRUE(x25519_shared_secret(a, x25519_public_key(b), k_ab));
    ASSERT_TRUE(x25519_shared_secret(b, x25519_public_key(a), k_ba));
    EXPECT_EQ(k_ab, k_ba);
  }
}

TEST(X25519, RejectsAllZeroPeer) {
  Drbg drbg(7);
  const X25519Key priv = drbg.next_x25519_private();
  X25519Key out{};
  EXPECT_FALSE(x25519_shared_secret(priv, X25519Key{}, out));
  for (std::uint8_t byte : out) EXPECT_EQ(byte, 0);
}

TEST(Drbg, DeterministicPerSeed) {
  Drbg a(42), b(42), c(43);
  const Bytes ba = a.generate(64);
  EXPECT_EQ(ba, b.generate(64));
  EXPECT_NE(ba, c.generate(64));
}

TEST(Drbg, StreamsAreContiguous) {
  Drbg a(1), b(1);
  Bytes chunked;
  append(chunked, a.generate(10));
  append(chunked, a.generate(100));
  append(chunked, a.generate(1));
  EXPECT_EQ(chunked, b.generate(111));
}

TEST(Drbg, KeysDiffer) {
  Drbg drbg(5);
  EXPECT_NE(drbg.next_key(), drbg.next_key());
}

}  // namespace
}  // namespace rex::crypto
