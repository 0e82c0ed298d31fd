// Simulated SGX platform services: measurements, reports, quotes, and a
// DCAP-style verification service (paper §II-C, §II-D).
//
// Substitution note (DESIGN.md §1): real SGX signs quotes with
// Intel-provisioned PCK keys verified through DCAP collateral. Here the
// Quoting Enclave MACs the report with a per-platform key that the simulated
// DCAP service also knows — the *trust decisions* (measurement comparison,
// user-data binding, signature validity) are identical, only the asymmetric
// primitive is replaced.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "support/bytes.hpp"

namespace rex::enclave {

using PlatformId = std::uint32_t;

/// MRENCLAVE analogue: SHA-256 of the enclave's initial code+data image.
using Measurement = crypto::Sha256Digest;

/// Computes the measurement of an enclave image. In the simulation the
/// "image" is a canonical string naming the code version and build options —
/// two enclaves share a measurement iff they run the same code, which is
/// exactly the property REX's mutual attestation checks (§III-A).
[[nodiscard]] Measurement measure_enclave_image(std::string_view image);

/// Hardware-signed attestation statement about one enclave (the report
/// rolled into a quote by the Quoting Enclave).
struct Report {
  Measurement measurement{};
  /// Free-form 32 bytes; REX stores a hash binding the ECDH public key and
  /// the peer's challenge nonce (§III-A).
  std::array<std::uint8_t, 32> user_data{};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static Report deserialize(BytesView payload);
};

/// A report signed by the platform's Quoting Enclave.
struct Quote {
  Report report;
  PlatformId platform = 0;
  crypto::Sha256Digest signature{};

  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static Quote deserialize(BytesView payload);
};

/// Per-platform quoting service (one per physical machine).
class QuotingEnclave {
 public:
  QuotingEnclave(PlatformId id, crypto::Drbg& key_source);

  [[nodiscard]] PlatformId platform() const { return platform_; }

  /// Converts a local report into a remotely-verifiable quote.
  [[nodiscard]] Quote quote(const Report& report) const;

 private:
  friend class DcapVerifier;
  PlatformId platform_;
  crypto::ChaChaKey platform_key_;
};

/// Simulated DCAP attestation service: knows the genuine platforms'
/// verification material and checks quote signatures.
class DcapVerifier {
 public:
  /// Registers a genuine platform (simulates Intel provisioning).
  void register_platform(const QuotingEnclave& qe);

  /// True iff the quote was signed by a registered platform's key.
  [[nodiscard]] bool verify(const Quote& quote) const;

 private:
  std::map<PlatformId, crypto::ChaChaKey> keys_;
};

}  // namespace rex::enclave
