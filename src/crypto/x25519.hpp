// X25519 elliptic-curve Diffie–Hellman (RFC 7748).
//
// REX attestation embeds each enclave's ephemeral X25519 public key in the
// quote user-data field (paper §III-A); after mutual attestation the shared
// secret seeds HKDF to derive the pairwise session key. Everything here
// runs on 51-bit limbs (curve25519-donna-c64 layout) and is constant-time:
// no branch or memory index depends on a secret. Shared secrets use the
// Montgomery ladder. Public keys multiply the fixed base point with a comb
// on the curve's Edwards form instead (ref10 / libsodium): 64 additions of
// precomputed multiples, each picked by a masked scan of its table row, in
// place of 255 ladder steps. The comb's output equals the ladder's for
// every scalar; crypto_test cross-checks them. Validated against RFC 7748
// test vectors.
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.hpp"

namespace rex::crypto {

inline constexpr std::size_t kX25519KeySize = 32;
using X25519Key = std::array<std::uint8_t, kX25519KeySize>;

/// scalar * point on Curve25519. `scalar` is clamped internally per RFC 7748.
[[nodiscard]] X25519Key x25519(const X25519Key& scalar, const X25519Key& point);

/// Public key for a private scalar: scalar * base point (9), the same bytes
/// as x25519(private_key, 9). The comb's table (30 KiB) is built on the
/// first call.
[[nodiscard]] X25519Key x25519_public_key(const X25519Key& private_key);

/// Shared secret: private * peer_public. Returns false (and zeros `out`) if
/// the result is the all-zero point (low-order input), which callers must
/// treat as an attestation failure.
[[nodiscard]] bool x25519_shared_secret(const X25519Key& private_key,
                                        const X25519Key& peer_public,
                                        X25519Key& out);

}  // namespace rex::crypto
