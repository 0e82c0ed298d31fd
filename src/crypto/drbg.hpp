// Deterministic random byte generator built on the ChaCha20 keystream.
//
// Simulated enclaves have no RDRAND; every key and nonce in the simulation
// comes from a seeded DRBG so experiments are reproducible. The construction
// is keystream-of-ChaCha20 with a 64-bit counter nonce (not fork-safe — fine
// for a single-process simulator).
#pragma once

#include <cstdint>

#include "crypto/chacha20.hpp"
#include "crypto/x25519.hpp"
#include "support/bytes.hpp"

namespace rex::crypto {

class Drbg {
 public:
  /// Seeds from a 64-bit value (expanded through SHA-256).
  explicit Drbg(std::uint64_t seed);

  /// Fills `out` with the next `n` pseudo-random bytes.
  void generate(std::uint8_t* out, std::size_t n);

  /// Fresh symmetric key.
  [[nodiscard]] ChaChaKey next_key();

  /// Fresh X25519 private scalar (clamping happens inside x25519() and
  /// x25519_public_key()).
  [[nodiscard]] X25519Key next_x25519_private();

 private:
  ChaChaKey key_{};
  std::uint64_t block_counter_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;  // valid bytes remaining at tail of buffer_
};

}  // namespace rex::crypto
