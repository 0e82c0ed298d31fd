#include "enclave/attestation.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "support/error.hpp"

namespace rex::enclave {

namespace {

constexpr std::uint32_t kDirectionLowerToHigher = 0;
constexpr std::uint32_t kDirectionHigherToLower = 1;
// Resync streams (DESIGN.md §6) live in their own direction plane so their
// counters never collide with the protocol streams above.
constexpr std::uint32_t kDirectionResyncLowerToHigher = 2;
constexpr std::uint32_t kDirectionResyncHigherToLower = 3;

std::string hex_of(BytesView b) { return hex_encode(b); }

/// Decodes hex field `key` of `message` into `out`, which it must fill
/// exactly.
template <std::size_t N>
void read_hex(const serialize::Json& message, const std::string& key,
              std::array<std::uint8_t, N>& out) {
  const Bytes bytes = hex_decode(message.at(key).as_string());
  REX_REQUIRE(bytes.size() == N, "attestation " + key + " size mismatch");
  std::copy(bytes.begin(), bytes.end(), out.begin());
}

}  // namespace

std::array<std::uint8_t, 32> quote_user_data(
    const crypto::X25519Key& public_key, BytesView nonce) {
  Bytes material(public_key.begin(), public_key.end());
  append(material, nonce);
  return crypto::sha256(material);
}

AttestationSession::AttestationSession(NodeId self, NodeId peer,
                                       const EnclaveIdentity& identity,
                                       const QuotingEnclave* quoting_enclave,
                                       const DcapVerifier* verifier,
                                       crypto::Drbg* drbg)
    : self_(self),
      peer_(peer),
      identity_(identity),
      quoting_enclave_(quoting_enclave),
      verifier_(verifier),
      drbg_(drbg) {
  REX_REQUIRE(self != peer, "attestation session with self");
  REX_REQUIRE(quoting_enclave_ && verifier_ && drbg_,
              "attestation session needs platform services");
  private_key_ = drbg_->next_x25519_private();
  public_key_ = crypto::x25519_public_key(private_key_);
}

serialize::Json AttestationSession::track(serialize::Json message) {
  bytes_sent_ += message.dump().size();
  return message;
}

serialize::Json AttestationSession::initiate() {
  REX_REQUIRE(state_ == AttestationState::kIdle,
              "attestation already in progress");
  drbg_->generate(my_nonce_.data(), my_nonce_.size());
  state_ = AttestationState::kChallengeSent;

  serialize::Json msg = serialize::Json::object();
  msg["type"] = "att_challenge";
  msg["from"] = static_cast<std::int64_t>(self_);
  msg["nonce"] = hex_of(BytesView(my_nonce_.data(), my_nonce_.size()));
  msg["pubkey"] = hex_of(BytesView(public_key_.data(), public_key_.size()));
  return track(std::move(msg));
}

serialize::Json AttestationSession::make_quote_message() {
  Report report;
  report.measurement = identity_.measurement;
  report.user_data = quote_user_data(
      public_key_, BytesView(peer_nonce_.data(), peer_nonce_.size()));
  const Quote quote = quoting_enclave_->quote(report);

  serialize::Json msg = serialize::Json::object();
  msg["type"] = "att_quote";
  msg["from"] = static_cast<std::int64_t>(self_);
  msg["pubkey"] = hex_of(BytesView(public_key_.data(), public_key_.size()));
  msg["quote"] = hex_of(quote.serialize());
  // Responder includes its own challenge so the initiator can quote back.
  msg["nonce"] = hex_of(BytesView(my_nonce_.data(), my_nonce_.size()));
  return track(std::move(msg));
}

bool AttestationSession::verify_peer_quote(const serialize::Json& message) {
  const Bytes quote_bytes = hex_decode(message.at("quote").as_string());
  read_hex(message, "pubkey", peer_public_);

  Quote quote;
  try {
    quote = Quote::deserialize(quote_bytes);
  } catch (const Error&) {
    return false;  // malformed quote: treat as attestation failure
  }
  // (1) Genuine platform signature via the DCAP service.
  if (!verifier_->verify(quote)) return false;
  // (2) Identical code: the peer's measurement must equal our own (§III-A).
  if (!crypto::constant_time_equal(
          BytesView(quote.report.measurement.data(),
                    quote.report.measurement.size()),
          BytesView(identity_.measurement.data(),
                    identity_.measurement.size()))) {
    return false;
  }
  // (3) Key binding: user_data commits to the pubkey and OUR nonce
  // (freshness: the quote answers our challenge, no replay).
  const auto expected = quote_user_data(
      peer_public_, BytesView(my_nonce_.data(), my_nonce_.size()));
  return crypto::constant_time_equal(
      BytesView(expected.data(), expected.size()),
      BytesView(quote.report.user_data.data(),
                quote.report.user_data.size()));
}

void AttestationSession::derive_session_key() {
  crypto::X25519Key shared{};
  if (!crypto::x25519_shared_secret(private_key_, peer_public_, shared)) {
    state_ = AttestationState::kFailed;
    return;
  }
  // Symmetric derivation: both sides bind the (ordered) pair of full
  // 32-bit node ids, so no two pairs share an info string at any scale.
  Bytes info = to_bytes("rex-session-v2");
  const NodeId lo = std::min(self_, peer_), hi = std::max(self_, peer_);
  const std::size_t at = info.size();
  info.resize(at + 8);
  store_le32(info.data() + at, lo);
  store_le32(info.data() + at + 4, hi);
  const Bytes okm = crypto::hkdf(to_bytes("rex-attest"),
                                 BytesView(shared.data(), shared.size()),
                                 info, session_key_.size());
  std::memcpy(session_key_.data(), okm.data(), session_key_.size());
}

void AttestationSession::require_well_formed(
    const serialize::Json& message) const {
  const std::string& type = message.at("type").as_string();
  REX_REQUIRE(message.at("from").as_number() == static_cast<double>(peer_),
              "attestation message from unexpected node");
  REX_REQUIRE(type == "att_challenge" || type == "att_quote",
              "unknown attestation message type: " + type);
  decltype(peer_nonce_) nonce{};
  read_hex(message, "nonce", nonce);
  if (type == "att_quote") {
    decltype(peer_public_) pubkey{};
    read_hex(message, "pubkey", pubkey);
    (void)hex_decode(message.at("quote").as_string());
  }
}

std::optional<serialize::Json> AttestationSession::handle(
    const serialize::Json& message) {
  require_well_formed(message);
  if (message.at("type").as_string() == "att_challenge") {
    if (state_ == AttestationState::kChallengeSent && self_ < peer_) {
      // Simultaneous initiation: lower id stays initiator; ignore the
      // peer's challenge (it will answer ours).
      return std::nullopt;
    }
    // Act as responder (possibly abandoning our own initiation).
    read_hex(message, "nonce", peer_nonce_);
    have_peer_nonce_ = true;
    // Fresh challenge for the quote we expect back.
    drbg_->generate(my_nonce_.data(), my_nonce_.size());
    state_ = AttestationState::kQuoteSent;
    return make_quote_message();
  }

  // An att_quote.
  if (state_ == AttestationState::kChallengeSent) {
    // Initiator receiving the responder's quote.
    if (!verify_peer_quote(message)) {
      state_ = AttestationState::kFailed;
      return std::nullopt;
    }
    // Answer the responder's challenge with our own quote.
    read_hex(message, "nonce", peer_nonce_);
    have_peer_nonce_ = true;
    derive_session_key();
    if (state_ == AttestationState::kFailed) return std::nullopt;
    state_ = AttestationState::kAttested;
    return make_quote_message();
  }
  if (state_ == AttestationState::kQuoteSent) {
    // Responder receiving the initiator's quote: final verification.
    if (!verify_peer_quote(message)) {
      state_ = AttestationState::kFailed;
      return std::nullopt;
    }
    derive_session_key();
    if (state_ == AttestationState::kFailed) return std::nullopt;
    state_ = AttestationState::kAttested;
    return std::nullopt;
  }
  // Unexpected quote (replay or confusion): fail closed.
  state_ = AttestationState::kFailed;
  return std::nullopt;
}

const crypto::ChaChaKey& AttestationSession::session_key() const {
  REX_REQUIRE(attested(), "session key requested before attestation");
  return session_key_;
}

crypto::ChaChaNonce AttestationSession::send_nonce_for(
    std::uint64_t seq) const {
  const std::uint32_t direction =
      self_ < peer_ ? kDirectionLowerToHigher : kDirectionHigherToLower;
  return crypto::nonce_from_sequence(seq, direction);
}

crypto::ChaChaNonce AttestationSession::recv_nonce_for(
    std::uint64_t seq) const {
  const std::uint32_t direction =
      peer_ < self_ ? kDirectionLowerToHigher : kDirectionHigherToLower;
  return crypto::nonce_from_sequence(seq, direction);
}

crypto::ChaChaNonce AttestationSession::resync_send_nonce_for(
    std::uint64_t seq) const {
  const std::uint32_t direction = self_ < peer_
                                      ? kDirectionResyncLowerToHigher
                                      : kDirectionResyncHigherToLower;
  return crypto::nonce_from_sequence(seq, direction);
}

crypto::ChaChaNonce AttestationSession::resync_recv_nonce_for(
    std::uint64_t seq) const {
  const std::uint32_t direction = peer_ < self_
                                      ? kDirectionResyncLowerToHigher
                                      : kDirectionResyncHigherToLower;
  return crypto::nonce_from_sequence(seq, direction);
}

}  // namespace rex::enclave
