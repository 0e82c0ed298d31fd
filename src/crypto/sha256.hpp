// SHA-256 (FIPS 180-4).
//
// Used for enclave measurements, HMAC, HKDF and the attestation transcript.
// Streaming interface plus a one-shot helper. Validated against NIST test
// vectors in tests/crypto_test.cpp.
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.hpp"

namespace rex::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();

  /// Absorbs `data`; may be called any number of times.
  void update(BytesView data);

  /// Finalizes and returns the digest. The object must be reset() before
  /// further use.
  [[nodiscard]] Sha256Digest finish();

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot convenience.
[[nodiscard]] Sha256Digest sha256(BytesView data);

}  // namespace rex::crypto
