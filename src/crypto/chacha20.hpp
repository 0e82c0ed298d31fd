// ChaCha20 stream cipher (RFC 8439 §2.3-2.4).
//
// The enclave substrate uses it (via the AEAD in aead.hpp) to encrypt
// node-to-node payloads, and drbg.hpp uses the raw keystream as a
// deterministic random generator for key material.
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.hpp"

namespace rex::crypto {

inline constexpr std::size_t kChaChaKeySize = 32;
inline constexpr std::size_t kChaChaNonceSize = 12;

using ChaChaKey = std::array<std::uint8_t, kChaChaKeySize>;
using ChaChaNonce = std::array<std::uint8_t, kChaChaNonceSize>;

/// Computes one 64-byte ChaCha20 block for (key, counter, nonce). The
/// portable reference every keystream backend matches byte for byte.
void chacha20_block(const ChaChaKey& key, std::uint32_t counter,
                    const ChaChaNonce& nonce, std::uint8_t out[64]);

/// XORs `in` with the ChaCha20 keystream starting at block
/// `initial_counter` and writes the result to `out`, which must hold
/// in.size() bytes. Encryption and decryption are the same operation; the
/// 32-bit block counter wraps as in RFC 8439. Follows the linalg::simd
/// dispatcher (DESIGN.md §7 "Kernel dispatch"): kAvx512 runs 16-block
/// passes, then kAvx512 and kAvx2 an 8-block pass, and chacha20_block
/// takes the tail and every other backend — the output bytes are the same
/// either way.
void chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                  std::uint32_t initial_counter, BytesView in,
                  std::uint8_t* out);

}  // namespace rex::crypto
