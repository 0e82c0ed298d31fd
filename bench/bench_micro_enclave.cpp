// Micro benchmarks — simulated SGX substrate (google-benchmark).
//
// Measures the enclave-side primitives whose costs the CostModel charges:
// measurement, quoting + DCAP verification, the full mutual attestation
// handshake, sealing, and transition accounting overhead.
#include <benchmark/benchmark.h>

#include "crypto/drbg.hpp"
#include "enclave/attestation.hpp"
#include "enclave/platform.hpp"
#include "enclave/runtime.hpp"
#include "enclave/sealed.hpp"
#include "support/rng.hpp"

namespace {

using namespace rex;

void BM_MeasureEnclaveImage(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        enclave::measure_enclave_image("rex-enclave-v1"));
  }
}
BENCHMARK(BM_MeasureEnclaveImage);

void BM_QuoteAndVerify(benchmark::State& state) {
  crypto::Drbg drbg(1);
  enclave::QuotingEnclave qe(0, drbg);
  enclave::DcapVerifier verifier;
  verifier.register_platform(qe);
  enclave::Report report;
  report.measurement = enclave::measure_enclave_image("rex-enclave-v1");
  for (auto _ : state) {
    const enclave::Quote quote = qe.quote(report);
    benchmark::DoNotOptimize(verifier.verify(quote));
  }
}
BENCHMARK(BM_QuoteAndVerify);

void BM_MutualAttestationHandshake(benchmark::State& state) {
  crypto::Drbg drbg(2);
  enclave::QuotingEnclave qe_a(0, drbg), qe_b(1, drbg);
  enclave::DcapVerifier verifier;
  verifier.register_platform(qe_a);
  verifier.register_platform(qe_b);
  const enclave::EnclaveIdentity identity{
      enclave::measure_enclave_image("rex-enclave-v1")};
  crypto::Drbg key_drbg(3);

  for (auto _ : state) {
    enclave::AttestationSession alice(0, 1, identity, &qe_a, &verifier,
                                      &key_drbg);
    enclave::AttestationSession bob(1, 0, identity, &qe_b, &verifier,
                                    &key_drbg);
    const serialize::Json challenge = alice.initiate();
    const auto quote_b = bob.handle(challenge);
    const auto quote_a = alice.handle(*quote_b);
    const auto done = bob.handle(*quote_a);
    benchmark::DoNotOptimize(alice.attested() && bob.attested());
    if (!alice.attested() || !bob.attested()) {
      state.SkipWithError("handshake failed");
      return;
    }
  }
}
BENCHMARK(BM_MutualAttestationHandshake);

void BM_SealUnseal(benchmark::State& state) {
  crypto::ChaChaKey platform_secret{};
  platform_secret.fill(0x5A);
  const enclave::SealingKey sealing(
      platform_secret, enclave::measure_enclave_image("rex-enclave-v1"));
  Rng rng(4);
  Bytes secret(static_cast<std::size_t>(state.range(0)));
  for (auto& b : secret) b = static_cast<std::uint8_t>(rng.uniform(256));
  std::uint64_t counter = 0;
  for (auto _ : state) {
    const Bytes sealed = sealing.seal(secret, counter++);
    benchmark::DoNotOptimize(sealing.unseal(sealed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SealUnseal)->Arg(256)->Arg(65536);

void BM_TransitionAccounting(benchmark::State& state) {
  enclave::Runtime runtime(enclave::SecurityMode::kSgxSimulated);
  for (auto _ : state) {
    runtime.record_ecall();
    runtime.record_ocall();
    benchmark::DoNotOptimize(runtime.stats());
  }
}
BENCHMARK(BM_TransitionAccounting);

void BM_EpcSlowdownFactor(benchmark::State& state) {
  const enclave::EpcModel epc{enclave::EpcConfig{}};
  std::size_t resident = 10 << 20;
  for (auto _ : state) {
    resident += 4096;
    benchmark::DoNotOptimize(epc.slowdown_factor(resident));
  }
}
BENCHMARK(BM_EpcSlowdownFactor);

}  // namespace

BENCHMARK_MAIN();
