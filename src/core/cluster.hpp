// Deterministic cluster identity: the platform services and per-node seeds
// every REX process must derive identically from the cluster seed.
//
// One simulated run holds all nodes in one process, so the Simulator used to
// build the enclave identity, the per-platform quoting keys and the per-node
// RNG seeds inline. The socket transport (DESIGN.md §11) runs the same
// nodes as N separate processes: each process constructs its own
// ClusterContext from the *same* (seed, platforms) pair and — because every
// derivation below is a pure function of that pair — arrives at the same
// quoting keys, the same DCAP verification material and the same per-node
// seeds as every other process. That is the simulation's stand-in for real
// key provisioning: where production SGX ships PCK certificates through
// Intel's PCS, this repo ships a cluster seed through the deployment config
// (docs/deployment.md, "Key provisioning").
#pragma once

#include <memory>
#include <vector>

#include "crypto/drbg.hpp"
#include "enclave/attestation.hpp"
#include "enclave/platform.hpp"
#include "net/message.hpp"
#include "support/rng.hpp"

namespace rex::core {

class ClusterContext {
 public:
  /// Derives all platform services from (seed, platforms). The derivation
  /// order is frozen: platform DRBG from seed ^ kPlatformSeedSalt, quoting
  /// enclaves created in platform-id order (each pulls its key from the
  /// DRBG), every platform registered with the verifier. Changing any of it
  /// changes every node's keys — and breaks cross-process attestation.
  ClusterContext(std::uint64_t seed, std::size_t platforms);

  ClusterContext(const ClusterContext&) = delete;
  ClusterContext& operator=(const ClusterContext&) = delete;

  /// All REX nodes run the same enclave image (§III-A): one measurement.
  [[nodiscard]] const enclave::EnclaveIdentity& identity() const {
    return identity_;
  }

  /// The quoting enclave of the platform hosting `node` (nodes are assigned
  /// to platforms round-robin, the paper's 2-processes-per-machine layout).
  [[nodiscard]] const enclave::QuotingEnclave* quoting_enclave(
      net::NodeId node) const {
    return quoting_enclaves_[node % quoting_enclaves_.size()].get();
  }

  [[nodiscard]] const enclave::DcapVerifier* verifier() const {
    return verifier_.get();
  }

  /// Per-node RNG seed: Rng(seed).derive(id) — the historical Simulator
  /// derivation, now the cluster-wide contract (a socket node and its
  /// simulated twin must draw identical training streams).
  [[nodiscard]] std::uint64_t node_seed(net::NodeId node) const {
    return master_.derive(node).seed();
  }

 private:
  static constexpr std::uint64_t kPlatformSeedSalt = 0x5157E35EED5EEDULL;

  enclave::EnclaveIdentity identity_;
  std::unique_ptr<crypto::Drbg> platform_drbg_;
  std::vector<std::unique_ptr<enclave::QuotingEnclave>> quoting_enclaves_;
  std::unique_ptr<enclave::DcapVerifier> verifier_;
  Rng master_;
};

}  // namespace rex::core
