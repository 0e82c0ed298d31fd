// Poly1305 one-time authenticator (RFC 8439 §2.5).
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.hpp"

namespace rex::crypto {

inline constexpr std::size_t kPolyTagSize = 16;
inline constexpr std::size_t kPolyKeySize = 32;

using PolyTag = std::array<std::uint8_t, kPolyTagSize>;
using PolyKey = std::array<std::uint8_t, kPolyKeySize>;

/// Streaming Poly1305: feed the message in pieces of any size, in order;
/// finish() returns the tag of their concatenation. The AEAD MACs its
/// aad, padding, ciphertext and lengths in place through this, without
/// first copying them into one buffer. A piece carrying at least eight
/// whole blocks absorbs them four lanes at a time on the kAvx2 and kAvx512
/// backends (DESIGN.md §7 "Kernel dispatch"); the tag is the same on
/// every backend.
class Poly1305 {
 public:
  explicit Poly1305(const PolyKey& key);

  void update(BytesView data);
  [[nodiscard]] PolyTag finish();

 private:
  /// Absorbs whole 16-byte blocks; `hibit` is the 2^128 pad bit, already
  /// shifted into limb 2 (zero only for the padded final partial block).
  void absorb(const std::uint8_t* blocks, std::size_t n, std::uint64_t hibit);

  std::uint64_t r_[3] = {};  // clamped r in 44/44/42-bit limbs
  std::uint64_t h_[3] = {};  // accumulator
  std::uint64_t s_[2] = {};  // second key half, the final addend
  std::uint8_t buffer_[16] = {};
  std::size_t buffered_ = 0;
};

/// One-shot tag of `data` under the one-time `key`.
[[nodiscard]] PolyTag poly1305(const PolyKey& key, BytesView data);

}  // namespace rex::crypto
