#include "crypto/aead.hpp"

#include <cstring>

#include "crypto/hmac.hpp"

namespace rex::crypto {

namespace {

PolyKey poly_key_for(const ChaChaKey& key, const ChaChaNonce& nonce) {
  std::uint8_t block[64];
  chacha20_block(key, 0, nonce, block);
  PolyKey pk;
  std::memcpy(pk.data(), block, pk.size());
  return pk;
}

/// Zero bytes that pad `size` up to the next 16-byte boundary.
BytesView pad16(std::size_t size) {
  static constexpr std::uint8_t kZeros[16] = {};
  return BytesView(kZeros, (16 - size % 16) % 16);
}

PolyTag compute_tag(const PolyKey& pk, BytesView aad, BytesView ciphertext) {
  // MACs aad || pad16 || ct || pad16 || len(aad) || len(ct) in place.
  Poly1305 mac(pk);
  mac.update(aad);
  mac.update(pad16(aad.size()));
  mac.update(ciphertext);
  mac.update(pad16(ciphertext.size()));
  std::uint8_t lengths[16];
  store_le64(lengths, aad.size());
  store_le64(lengths + 8, ciphertext.size());
  mac.update(BytesView(lengths, 16));
  return mac.finish();
}

}  // namespace

void aead_seal_into(const ChaChaKey& key, const ChaChaNonce& nonce,
                    BytesView aad, BytesView plaintext, Bytes& out) {
  const std::size_t at = out.size();
  out.resize(at + plaintext.size() + kAeadTagSize);
  std::uint8_t* ciphertext = out.data() + at;
  chacha20_xor(key, nonce, 1, plaintext, ciphertext);
  const PolyTag tag = compute_tag(poly_key_for(key, nonce), aad,
                                  BytesView(ciphertext, plaintext.size()));
  std::memcpy(ciphertext + plaintext.size(), tag.data(), tag.size());
}

bool aead_open_into(const ChaChaKey& key, const ChaChaNonce& nonce,
                    BytesView aad, BytesView sealed, Bytes& out) {
  if (sealed.size() < kAeadTagSize) return false;
  const BytesView ciphertext = sealed.first(sealed.size() - kAeadTagSize);
  const BytesView tag = sealed.last(kAeadTagSize);
  const PolyTag expected =
      compute_tag(poly_key_for(key, nonce), aad, ciphertext);
  if (!constant_time_equal(BytesView(expected.data(), expected.size()), tag)) {
    return false;
  }
  const std::size_t at = out.size();
  out.resize(at + ciphertext.size());
  chacha20_xor(key, nonce, 1, ciphertext, out.data() + at);
  return true;
}

Bytes aead_seal(const ChaChaKey& key, const ChaChaNonce& nonce, BytesView aad,
                BytesView plaintext) {
  Bytes out;
  aead_seal_into(key, nonce, aad, plaintext, out);
  return out;
}

std::optional<Bytes> aead_open(const ChaChaKey& key, const ChaChaNonce& nonce,
                               BytesView aad, BytesView sealed) {
  Bytes out;
  if (!aead_open_into(key, nonce, aad, sealed, out)) return std::nullopt;
  return out;
}

ChaChaNonce nonce_from_sequence(std::uint64_t sequence,
                                std::uint32_t direction) {
  ChaChaNonce nonce{};
  store_le32(nonce.data(), direction);
  store_le64(nonce.data() + 4, sequence);
  return nonce;
}

}  // namespace rex::crypto
