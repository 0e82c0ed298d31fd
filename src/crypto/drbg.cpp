#include "crypto/drbg.hpp"

#include <cstring>

#include "crypto/sha256.hpp"

namespace rex::crypto {

Drbg::Drbg(std::uint64_t seed) {
  std::uint8_t seed_bytes[8];
  store_le64(seed_bytes, seed);
  const Sha256Digest d = sha256(BytesView(seed_bytes, 8));
  std::memcpy(key_.data(), d.data(), key_.size());
}

void Drbg::generate(std::uint8_t* out, std::size_t n) {
  while (n > 0) {
    if (buffered_ == 0) {
      ChaChaNonce nonce{};
      store_le64(nonce.data() + 4, block_counter_ >> 32);
      chacha20_block(key_, static_cast<std::uint32_t>(block_counter_), nonce,
                     buffer_);
      ++block_counter_;
      buffered_ = sizeof buffer_;
    }
    const std::size_t take = std::min(n, buffered_);
    std::memcpy(out, buffer_ + (sizeof buffer_ - buffered_), take);
    buffered_ -= take;
    out += take;
    n -= take;
  }
}

ChaChaKey Drbg::next_key() {
  ChaChaKey k;
  generate(k.data(), k.size());
  return k;
}

X25519Key Drbg::next_x25519_private() {
  X25519Key k;
  generate(k.data(), k.size());
  return k;
}

}  // namespace rex::crypto
