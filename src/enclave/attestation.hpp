// REX mutual attestation (paper §II-D, §III-A).
//
// Every pair of REX nodes mutually attests before exchanging sensitive data:
//   1. A -> B  challenge : nonce_A + A's ephemeral X25519 public key
//   2. B -> A  quote     : B's quote with user_data = H(pk_B || nonce_A),
//                          plus nonce_B and pk_B
//   3. A -> B  quote     : A's quote with user_data = H(pk_A || nonce_B)
// Each side verifies the peer quote through the DCAP service, requires the
// peer measurement to EQUAL its own (all REX nodes run identical code,
// §III-A), checks the user-data binding, and derives the session key
// HKDF(x25519(self_priv, peer_pub)). Messages are JSON in cleartext — they
// carry no secrets, and forgery fails because forgers cannot produce valid
// quotes (Algorithm 1 commentary in the paper).
//
// Simultaneous initiation is resolved deterministically: if both sides sent
// challenges, the lower node id stays initiator and the higher id responds.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"
#include "crypto/x25519.hpp"
#include "enclave/platform.hpp"
#include "serialize/json.hpp"

namespace rex::enclave {

using NodeId = std::uint32_t;

/// Immutable identity of the enclave code this node runs.
struct EnclaveIdentity {
  Measurement measurement{};
};

enum class AttestationState {
  kIdle,
  kChallengeSent,
  kQuoteSent,  // responder: waiting for the initiator's quote
  kAttested,
  kFailed,
};

/// One pairwise attestation session (each node keeps one per neighbor).
class AttestationSession {
 public:
  AttestationSession(NodeId self, NodeId peer,
                     const EnclaveIdentity& identity,
                     const QuotingEnclave* quoting_enclave,
                     const DcapVerifier* verifier, crypto::Drbg* drbg);

  /// Starts the handshake; returns the challenge message to send.
  [[nodiscard]] serialize::Json initiate();

  /// Throws rex::Error unless handle() can read `message` whole: a JSON
  /// object whose "type" is att_challenge or att_quote and whose "from" is
  /// this session's peer, with a 16-byte hex "nonce"; a quote also carries
  /// a 32-byte hex "pubkey" and a hex "quote". Says nothing of whether the
  /// quote verifies (a forged quote is well formed and fails closed).
  void require_well_formed(const serialize::Json& message) const;

  /// Feeds one incoming attestation message; returns the reply to send, if
  /// any. Transitions to kAttested or kFailed as a side effect. Refuses a
  /// message require_well_formed() refuses, before any state moves.
  [[nodiscard]] std::optional<serialize::Json> handle(
      const serialize::Json& message);

  [[nodiscard]] AttestationState state() const { return state_; }
  [[nodiscard]] bool attested() const {
    return state_ == AttestationState::kAttested;
  }

  /// Session key; valid only when attested().
  [[nodiscard]] const crypto::ChaChaKey& session_key() const;

  // ===== Explicit-sequence AEAD (churn-tolerant framing, DESIGN.md §6) ===
  //
  // Implicit counters desynchronize the moment a delivery is lost to an
  // outage: the sender's position advances, the receiver's does not, and
  // every later message fails authentication. Secure REX payloads therefore
  // carry their send sequence in cleartext (the DTLS approach); the
  // receiver derives the nonce from the explicit sequence and enforces
  // strictly-forward progress, so losses leave gaps instead of corruption
  // and replays of consumed positions are rejected. Resync messages use
  // their own sequence plane (nonce directions 2/3): they travel on the
  // control path and are not FIFO with the protocol stream.

  /// Allocates the next protocol / resync send position.
  [[nodiscard]] std::uint64_t next_send_sequence() { return send_sequence_++; }
  [[nodiscard]] std::uint64_t next_resync_send_sequence() {
    return resync_send_sequence_++;
  }
  /// Nonce either side uses for the given position of each stream.
  [[nodiscard]] crypto::ChaChaNonce send_nonce_for(std::uint64_t seq) const;
  [[nodiscard]] crypto::ChaChaNonce recv_nonce_for(std::uint64_t seq) const;
  [[nodiscard]] crypto::ChaChaNonce resync_send_nonce_for(
      std::uint64_t seq) const;
  [[nodiscard]] crypto::ChaChaNonce resync_recv_nonce_for(
      std::uint64_t seq) const;
  /// Accepts a successfully-opened message's position: false = replay of a
  /// consumed position (call only after the AEAD verified).
  [[nodiscard]] bool accept_recv_sequence(std::uint64_t seq) {
    if (seq < recv_sequence_) return false;
    recv_sequence_ = seq + 1;
    return true;
  }
  [[nodiscard]] bool accept_resync_recv_sequence(std::uint64_t seq) {
    if (seq < resync_recv_sequence_) return false;
    resync_recv_sequence_ = seq + 1;
    return true;
  }
  /// Highest accepted protocol position + 1 (stale-key handover: the old
  /// session's receive watermark continues in TrustedNode::StaleKey).
  [[nodiscard]] std::uint64_t recv_sequence() const { return recv_sequence_; }

  /// Bytes of attestation traffic this session has produced (network
  /// accounting; attestation is cheap but not free).
  [[nodiscard]] std::size_t bytes_sent() const { return bytes_sent_; }

 private:
  [[nodiscard]] serialize::Json make_quote_message();
  [[nodiscard]] bool verify_peer_quote(const serialize::Json& message);
  void derive_session_key();
  [[nodiscard]] serialize::Json track(serialize::Json message);

  NodeId self_;
  NodeId peer_;
  EnclaveIdentity identity_;
  const QuotingEnclave* quoting_enclave_;
  const DcapVerifier* verifier_;
  crypto::Drbg* drbg_;

  AttestationState state_ = AttestationState::kIdle;
  crypto::X25519Key private_key_{};
  crypto::X25519Key public_key_{};
  crypto::X25519Key peer_public_{};
  std::array<std::uint8_t, 16> my_nonce_{};    // challenge we issued
  std::array<std::uint8_t, 16> peer_nonce_{};  // challenge we must answer
  bool have_peer_nonce_ = false;
  crypto::ChaChaKey session_key_{};
  std::uint64_t send_sequence_ = 0;
  std::uint64_t recv_sequence_ = 0;
  std::uint64_t resync_send_sequence_ = 0;
  std::uint64_t resync_recv_sequence_ = 0;
  std::size_t bytes_sent_ = 0;
};

/// user_data binding: H(public_key || responder_nonce).
[[nodiscard]] std::array<std::uint8_t, 32> quote_user_data(
    const crypto::X25519Key& public_key, BytesView nonce);

}  // namespace rex::enclave
