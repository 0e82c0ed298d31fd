// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//
// This is REX's channel cipher: after attestation, every data/model blob
// exchanged between enclaves is sealed with the pairwise session key (the
// Intel SGX SSL AES-GCM role in the paper; see DESIGN.md §1 for the
// substitution rationale).
#pragma once

#include <optional>

#include "crypto/chacha20.hpp"
#include "crypto/poly1305.hpp"
#include "support/bytes.hpp"

namespace rex::crypto {

inline constexpr std::size_t kAeadTagSize = kPolyTagSize;
inline constexpr std::size_t kAeadOverhead = kAeadTagSize;

/// Encrypts `plaintext`, authenticating `aad` too, and appends
/// ciphertext || 16-byte tag to `out` (which must not alias the inputs).
/// The share path seals straight into a pooled wire buffer this way.
void aead_seal_into(const ChaChaKey& key, const ChaChaNonce& nonce,
                    BytesView aad, BytesView plaintext, Bytes& out);

/// Verifies `sealed` (ciphertext || tag) and only then appends the
/// plaintext to `out`. On authentication failure (wrong key/nonce/aad or
/// tampered ciphertext) returns false with `out` untouched, so no
/// unauthenticated byte is ever written.
[[nodiscard]] bool aead_open_into(const ChaChaKey& key,
                                  const ChaChaNonce& nonce, BytesView aad,
                                  BytesView sealed, Bytes& out);

/// aead_seal_into a fresh buffer.
[[nodiscard]] Bytes aead_seal(const ChaChaKey& key, const ChaChaNonce& nonce,
                              BytesView aad, BytesView plaintext);

/// aead_open_into a fresh buffer; nullopt on authentication failure.
[[nodiscard]] std::optional<Bytes> aead_open(const ChaChaKey& key,
                                             const ChaChaNonce& nonce,
                                             BytesView aad, BytesView sealed);

/// Builds a 96-bit nonce from a session sequence number. Each (key, seq)
/// pair must be unique; REX sessions count messages per direction.
[[nodiscard]] ChaChaNonce nonce_from_sequence(std::uint64_t sequence,
                                              std::uint32_t direction);

}  // namespace rex::crypto
