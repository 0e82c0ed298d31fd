// Enclave substrate tests: measurements/quotes/DCAP verification, the EPC
// paging model, runtime accounting, sealed storage, and the full mutual
// attestation state machine including its failure modes (rogue code, forged
// quotes, unknown platforms, replayed nonces).
#include <gtest/gtest.h>

#include "enclave/attestation.hpp"
#include "enclave/epc.hpp"
#include "enclave/platform.hpp"
#include "enclave/runtime.hpp"
#include "enclave/sealed.hpp"
#include "support/error.hpp"

namespace rex::enclave {
namespace {

TEST(Measurement, DeterministicAndDistinct) {
  const Measurement a = measure_enclave_image("rex-enclave-v1");
  const Measurement b = measure_enclave_image("rex-enclave-v1");
  const Measurement c = measure_enclave_image("rex-enclave-v2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Report, SerializeRoundTrip) {
  Report report;
  report.measurement = measure_enclave_image("image");
  report.user_data.fill(0x7A);
  const Report restored = Report::deserialize(report.serialize());
  EXPECT_EQ(restored.measurement, report.measurement);
  EXPECT_EQ(restored.user_data, report.user_data);
}

TEST(Quote, SerializeRoundTrip) {
  crypto::Drbg drbg(1);
  QuotingEnclave qe(3, drbg);
  Report report;
  report.measurement = measure_enclave_image("image");
  const Quote quote = qe.quote(report);
  const Quote restored = Quote::deserialize(quote.serialize());
  EXPECT_EQ(restored.platform, 3u);
  EXPECT_EQ(restored.signature, quote.signature);
  EXPECT_EQ(restored.report.measurement, report.measurement);
}

TEST(Dcap, VerifiesGenuineQuote) {
  crypto::Drbg drbg(2);
  QuotingEnclave qe(0, drbg);
  DcapVerifier verifier;
  verifier.register_platform(qe);
  Report report;
  report.measurement = measure_enclave_image("image");
  EXPECT_TRUE(verifier.verify(qe.quote(report)));
}

TEST(Dcap, RejectsUnknownPlatform) {
  crypto::Drbg drbg(3);
  QuotingEnclave genuine(0, drbg);
  QuotingEnclave rogue(1, drbg);  // never registered
  DcapVerifier verifier;
  verifier.register_platform(genuine);
  Report report;
  EXPECT_FALSE(verifier.verify(rogue.quote(report)));
}

TEST(Dcap, RejectsTamperedQuote) {
  crypto::Drbg drbg(4);
  QuotingEnclave qe(0, drbg);
  DcapVerifier verifier;
  verifier.register_platform(qe);
  Report report;
  report.measurement = measure_enclave_image("image");
  Quote quote = qe.quote(report);
  quote.report.user_data[0] ^= 1;  // tamper after signing
  EXPECT_FALSE(verifier.verify(quote));
}

TEST(Epc, SlowdownKicksInBeyondLimit) {
  const EpcModel epc{EpcConfig{}};
  const std::size_t available = epc.config().available_bytes;
  EXPECT_DOUBLE_EQ(epc.slowdown_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(epc.slowdown_factor(available), 1.0);
  EXPECT_FALSE(epc.beyond_epc(available));
  EXPECT_TRUE(epc.beyond_epc(available + 1));
  const double at_2x = epc.slowdown_factor(2 * available);
  EXPECT_GT(at_2x, 1.0);
  EXPECT_NEAR(at_2x, 1.0 + epc.config().paging_penalty, 1e-9);
  // Monotone in memory.
  EXPECT_GT(epc.slowdown_factor(3 * available), at_2x);
}

TEST(Epc, OccupancyRatio) {
  const EpcModel epc{EpcConfig{}};
  EXPECT_NEAR(epc.occupancy(epc.config().available_bytes / 2), 0.5, 1e-9);
}

TEST(Runtime, NativeModeCountsNothing) {
  Runtime runtime(SecurityMode::kNative);
  runtime.record_ecall();
  runtime.record_ocall();
  runtime.record_crypto(100);
  EXPECT_EQ(runtime.stats().ecalls, 0u);
  EXPECT_EQ(runtime.stats().ocalls, 0u);
  EXPECT_EQ(runtime.stats().sealed_bytes, 0u);
  EXPECT_DOUBLE_EQ(runtime.memory_slowdown(), 1.0);
}

TEST(Runtime, SgxModeCounts) {
  Runtime runtime(SecurityMode::kSgxSimulated);
  runtime.record_ecall();
  runtime.record_ecall();
  runtime.record_ocall();
  runtime.record_crypto(1000);
  EXPECT_EQ(runtime.stats().ecalls, 2u);
  EXPECT_EQ(runtime.stats().ocalls, 1u);
  EXPECT_EQ(runtime.stats().sealed_bytes, 1000u);
  runtime.reset_epoch_counters();
  EXPECT_EQ(runtime.stats().ecalls, 0u);
  EXPECT_EQ(runtime.stats().sealed_bytes, 0u);
}

TEST(Runtime, MemoryTracking) {
  Runtime runtime(SecurityMode::kSgxSimulated);
  runtime.set_resident(1000);
  runtime.set_resident(1500);
  EXPECT_EQ(runtime.stats().resident_bytes, 1500u);
  EXPECT_EQ(runtime.stats().peak_resident_bytes, 1500u);
  runtime.set_resident(99);
  EXPECT_EQ(runtime.stats().resident_bytes, 99u);
  EXPECT_EQ(runtime.stats().peak_resident_bytes, 1500u);
}

TEST(Runtime, MemorySlowdownUsesEpc) {
  EpcConfig epc;
  epc.available_bytes = 1000;
  Runtime runtime(SecurityMode::kSgxSimulated, epc);
  runtime.set_resident(500);
  EXPECT_DOUBLE_EQ(runtime.memory_slowdown(), 1.0);
  runtime.set_resident(2000);
  EXPECT_GT(runtime.memory_slowdown(), 1.0);
}

TEST(Sealing, RoundTrip) {
  crypto::Drbg drbg(5);
  const crypto::ChaChaKey platform_secret = drbg.next_key();
  const SealingKey key(platform_secret, measure_enclave_image("image"));
  const Bytes secret = to_bytes("user embedding state");
  const Bytes sealed = key.seal(secret, 1);
  const auto unsealed = key.unseal(sealed);
  ASSERT_TRUE(unsealed.has_value());
  EXPECT_EQ(*unsealed, secret);
}

TEST(Sealing, BoundToMeasurementAndPlatform) {
  crypto::Drbg drbg(6);
  const crypto::ChaChaKey platform_a = drbg.next_key();
  const crypto::ChaChaKey platform_b = drbg.next_key();
  const SealingKey key_a(platform_a, measure_enclave_image("image"));
  const SealingKey other_code(platform_a, measure_enclave_image("evil"));
  const SealingKey other_platform(platform_b, measure_enclave_image("image"));
  const Bytes sealed = key_a.seal(to_bytes("secret"), 7);
  EXPECT_FALSE(other_code.unseal(sealed).has_value());
  EXPECT_FALSE(other_platform.unseal(sealed).has_value());
  EXPECT_TRUE(key_a.unseal(sealed).has_value());
}

TEST(Sealing, DetectsTampering) {
  crypto::Drbg drbg(7);
  const SealingKey key(drbg.next_key(), measure_enclave_image("image"));
  Bytes sealed = key.seal(to_bytes("secret"), 1);
  sealed[sealed.size() / 2] ^= 1;
  EXPECT_FALSE(key.unseal(sealed).has_value());
  EXPECT_FALSE(key.unseal(Bytes(4)).has_value());  // absurdly short
}

// ===== Attestation protocol =====

struct AttestationRig {
  crypto::Drbg drbg{100};
  QuotingEnclave qe_a{0, drbg};
  QuotingEnclave qe_b{1, drbg};
  DcapVerifier verifier;
  EnclaveIdentity identity{measure_enclave_image("rex-enclave-v1")};
  crypto::Drbg drbg_a{101};
  crypto::Drbg drbg_b{102};

  AttestationRig() {
    verifier.register_platform(qe_a);
    verifier.register_platform(qe_b);
  }

  AttestationSession session_a() {
    return AttestationSession(0, 1, identity, &qe_a, &verifier, &drbg_a);
  }
  AttestationSession session_b(const EnclaveIdentity& id_b) {
    return AttestationSession(1, 0, id_b, &qe_b, &verifier, &drbg_b);
  }
  AttestationSession session_b() { return session_b(identity); }
};

TEST(Attestation, SuccessfulHandshake) {
  AttestationRig rig;
  auto a = rig.session_a();
  auto b = rig.session_b();

  const serialize::Json challenge = a.initiate();
  EXPECT_EQ(a.state(), AttestationState::kChallengeSent);
  const auto quote_b = b.handle(challenge);
  ASSERT_TRUE(quote_b.has_value());
  EXPECT_EQ(b.state(), AttestationState::kQuoteSent);
  const auto quote_a = a.handle(*quote_b);
  ASSERT_TRUE(quote_a.has_value());
  EXPECT_TRUE(a.attested());
  const auto final_reply = b.handle(*quote_a);
  EXPECT_FALSE(final_reply.has_value());
  EXPECT_TRUE(b.attested());

  // Both sides derived the same session key.
  EXPECT_EQ(a.session_key(), b.session_key());
}

TEST(Attestation, SessionKeysEncryptTraffic) {
  AttestationRig rig;
  auto a = rig.session_a();
  auto b = rig.session_b();
  const auto c1 = a.initiate();
  const auto q_b = b.handle(c1);
  const auto q_a = a.handle(*q_b);
  (void)b.handle(*q_a);
  ASSERT_TRUE(a.attested() && b.attested());

  // A -> B: A allocates an explicit send position; B derives the same
  // nonce from it (churn-tolerant framing, DESIGN.md §6) and accepts the
  // position exactly once.
  const Bytes message = to_bytes("300 raw ratings");
  const std::uint64_t seq = a.next_send_sequence();
  const auto nonce_tx = a.send_nonce_for(seq);
  const Bytes sealed = crypto::aead_seal(a.session_key(), nonce_tx, {}, message);
  const auto nonce_rx = b.recv_nonce_for(seq);
  EXPECT_EQ(nonce_tx, nonce_rx);
  const auto opened = crypto::aead_open(b.session_key(), nonce_rx, {}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, message);
  EXPECT_TRUE(b.accept_recv_sequence(seq));
  EXPECT_FALSE(b.accept_recv_sequence(seq));  // replayed position rejected
  // Direction separation: B -> A nonces differ from A -> B, and the resync
  // plane differs from the protocol plane at the same position.
  EXPECT_NE(b.send_nonce_for(0), nonce_tx);
  EXPECT_NE(a.resync_send_nonce_for(seq), nonce_tx);
}

TEST(Attestation, SessionKeyBindsFullPeerIds) {
  // Peers 4464 and 70000 share their low 16 bits (0x1170). With identical
  // DRBG seeds both handshakes reach the same X25519 secret, so only the
  // HKDF info string can tell the two pairs' session keys apart.
  ASSERT_EQ(4464u & 0xffffu, 70000u & 0xffffu);
  const auto handshake_key = [](NodeId peer) {
    AttestationRig rig;
    AttestationSession a(1, peer, rig.identity, &rig.qe_a, &rig.verifier,
                         &rig.drbg_a);
    AttestationSession b(peer, 1, rig.identity, &rig.qe_b, &rig.verifier,
                         &rig.drbg_b);
    const auto q_b = b.handle(a.initiate());
    EXPECT_TRUE(q_b.has_value());
    const auto q_a = a.handle(*q_b);
    EXPECT_TRUE(q_a.has_value());
    (void)b.handle(*q_a);
    EXPECT_TRUE(a.attested() && b.attested());
    EXPECT_EQ(a.session_key(), b.session_key());
    return a.session_key();
  };
  EXPECT_NE(handshake_key(4464), handshake_key(70000));
}

TEST(Attestation, RejectsRogueMeasurement) {
  // A "rogue" enclave running different code: quotes verify as genuine SGX
  // but the measurement differs from ours -> fail (§III-A).
  AttestationRig rig;
  auto a = rig.session_a();
  const EnclaveIdentity rogue{measure_enclave_image("rex-enclave-evil")};
  auto b = rig.session_b(rogue);

  const auto challenge = a.initiate();
  const auto quote_b = b.handle(challenge);
  ASSERT_TRUE(quote_b.has_value());
  const auto reply = a.handle(*quote_b);
  EXPECT_FALSE(reply.has_value());
  EXPECT_EQ(a.state(), AttestationState::kFailed);
}

TEST(Attestation, RejectsUnregisteredPlatform) {
  AttestationRig rig;
  crypto::Drbg rogue_drbg(55);
  QuotingEnclave rogue_qe(9, rogue_drbg);  // not registered with DCAP
  auto a = rig.session_a();
  AttestationSession b(1, 0, rig.identity, &rogue_qe, &rig.verifier,
                       &rig.drbg_b);
  const auto challenge = a.initiate();
  const auto quote_b = b.handle(challenge);
  ASSERT_TRUE(quote_b.has_value());
  const auto reply = a.handle(*quote_b);
  EXPECT_FALSE(reply.has_value());
  EXPECT_EQ(a.state(), AttestationState::kFailed);
}

TEST(Attestation, RejectsReplayedQuote) {
  // A quote answering a *different* challenge (stale nonce) must fail the
  // user-data binding check.
  AttestationRig rig;
  auto a1 = rig.session_a();
  auto b1 = rig.session_b();
  const auto challenge1 = a1.initiate();
  const auto stale_quote = b1.handle(challenge1);
  ASSERT_TRUE(stale_quote.has_value());

  // New handshake attempt by A: fresh nonce. Replaying b's old quote fails.
  crypto::Drbg fresh_drbg(103);
  AttestationSession a2(0, 1, rig.identity, &rig.qe_a, &rig.verifier,
                        &fresh_drbg);
  (void)a2.initiate();
  const auto reply = a2.handle(*stale_quote);
  EXPECT_FALSE(reply.has_value());
  EXPECT_EQ(a2.state(), AttestationState::kFailed);
}

TEST(Attestation, SimultaneousInitiationResolves) {
  AttestationRig rig;
  auto a = rig.session_a();
  auto b = rig.session_b();
  const auto challenge_a = a.initiate();
  const auto challenge_b = b.initiate();
  // Cross delivery: lower id (a) ignores; higher id (b) responds.
  const auto from_a = a.handle(challenge_b);
  EXPECT_FALSE(from_a.has_value());
  const auto quote_b = b.handle(challenge_a);
  ASSERT_TRUE(quote_b.has_value());
  const auto quote_a = a.handle(*quote_b);
  ASSERT_TRUE(quote_a.has_value());
  EXPECT_TRUE(a.attested());
  (void)b.handle(*quote_a);
  EXPECT_TRUE(b.attested());
  EXPECT_EQ(a.session_key(), b.session_key());
}

TEST(Attestation, SessionKeyUnavailableBeforeAttested) {
  AttestationRig rig;
  auto a = rig.session_a();
  EXPECT_THROW((void)a.session_key(), Error);
}

TEST(Attestation, MessageFromWrongPeerRejected) {
  AttestationRig rig;
  auto a = rig.session_a();
  serialize::Json msg = serialize::Json::object();
  msg["type"] = "att_challenge";
  msg["from"] = 7;  // session peer is node 1
  msg["nonce"] = "00";
  msg["pubkey"] = "00";
  EXPECT_THROW((void)a.handle(msg), Error);
}

TEST(Attestation, UserDataBindsKeyAndNonce) {
  crypto::X25519Key key{};
  key[0] = 9;
  const Bytes nonce1 = {1, 2, 3};
  const Bytes nonce2 = {1, 2, 4};
  EXPECT_NE(quote_user_data(key, nonce1), quote_user_data(key, nonce2));
  crypto::X25519Key key2 = key;
  key2[5] = 1;
  EXPECT_NE(quote_user_data(key, nonce1), quote_user_data(key2, nonce1));
}

}  // namespace
}  // namespace rex::enclave
