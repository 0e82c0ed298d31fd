// Micro benchmarks — cryptography substrate (google-benchmark).
//
// Host wall-clock throughputs of the primitives: the AEAD is on REX's hot
// path (every protocol payload between enclaves), the hash/HKDF/X25519 are
// per-attestation costs. They do not feed CostModel::crypto_byte_ns, which
// models SGXv1 in-enclave sealing rather than this host's kernels
// (DESIGN.md §1 "Intel SGX SSL AES-GCM"). 3608 B is the plaintext of one
// paper-scale raw-data share (300 ratings); sealed it is 3632 B (8-B
// sequence, ciphertext, 16-B tag) and 3645 B with the 13-B envelope
// header. BM_ChaCha20Xor and BM_Poly1305 split the AEAD into its keystream
// and MAC halves; each kernel runs on the backend the CPU dispatches to
// (REX_SCALAR_KERNELS=1 measures the scalar reference).
#include <benchmark/benchmark.h>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "support/rng.hpp"

namespace {

using namespace rex;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
  return bytes;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key = random_bytes(32, 2);
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void BM_ChaCha20Xor(benchmark::State& state) {
  crypto::ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 5 + 3);
  }
  const Bytes plaintext =
      random_bytes(static_cast<std::size_t>(state.range(0)), 8);
  Bytes out(plaintext.size());
  std::uint64_t sequence = 0;
  for (auto _ : state) {
    const crypto::ChaChaNonce nonce =
        crypto::nonce_from_sequence(sequence++, 0);
    crypto::chacha20_xor(key, nonce, 1, plaintext, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20Xor)->Arg(64)->Arg(3608)->Arg(65536);

void BM_Poly1305(benchmark::State& state) {
  crypto::PolyKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 11 + 9);
  }
  const Bytes message =
      random_bytes(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::poly1305(key, message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Poly1305)->Arg(64)->Arg(3608)->Arg(65536);

void BM_AeadSeal(benchmark::State& state) {
  crypto::ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const Bytes plaintext =
      random_bytes(static_cast<std::size_t>(state.range(0)), 4);
  const Bytes aad = random_bytes(8, 5);
  std::uint64_t sequence = 0;
  for (auto _ : state) {
    const crypto::ChaChaNonce nonce =
        crypto::nonce_from_sequence(sequence++, 0);
    benchmark::DoNotOptimize(crypto::aead_seal(key, nonce, aad, plaintext));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadSeal)->Arg(64)->Arg(3608)->Arg(65536)->Arg(1 << 20);

void BM_AeadOpen(benchmark::State& state) {
  crypto::ChaChaKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 3 + 2);
  }
  const Bytes plaintext =
      random_bytes(static_cast<std::size_t>(state.range(0)), 6);
  const Bytes aad = random_bytes(8, 7);
  const crypto::ChaChaNonce nonce = crypto::nonce_from_sequence(1, 1);
  const Bytes sealed = crypto::aead_seal(key, nonce, aad, plaintext);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aead_open(key, nonce, aad, sealed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AeadOpen)->Arg(3608)->Arg(65536);

void BM_X25519SharedSecret(benchmark::State& state) {
  crypto::X25519Key alice{}, bob_public{};
  alice.fill(0x42);
  bob_public = crypto::x25519_public_key([] {
    crypto::X25519Key k{};
    k.fill(0x66);
    return k;
  }());
  crypto::X25519Key out{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::x25519_shared_secret(alice, bob_public, out));
  }
}
BENCHMARK(BM_X25519SharedSecret);

void BM_DrbgGenerate(benchmark::State& state) {
  crypto::Drbg drbg(99);
  Bytes buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    drbg.generate(buffer.data(), buffer.size());
    benchmark::DoNotOptimize(buffer.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DrbgGenerate)->Arg(32)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
