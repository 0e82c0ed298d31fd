// Untrusted host: Algorithm 1 of the paper.
//
// Owns the enclave runtime and the trusted node, and proxies between the
// network and the enclave: initialize -> read dataset / start network /
// ecall_init; on_deliver -> ecall_input; on_train_due -> ecall_train_due;
// ocall_send -> transport. All I/O stays on this side of the boundary (the
// paper's TCB discipline, §III-B). The entry points are the event
// vocabulary of sim::SimEngine: one per scheduled event kind that can reach
// a node.
#pragma once

#include <memory>

#include "core/trusted_node.hpp"
#include "net/transport.hpp"

namespace rex::core {

class UntrustedHost {
 public:
  UntrustedHost(const RexConfig& config, NodeId id,
                const enclave::EnclaveIdentity& identity,
                const enclave::QuotingEnclave* quoting_enclave,
                const enclave::DcapVerifier* verifier,
                ml::ModelFactory model_factory, std::uint64_t seed,
                net::Transport& transport);

  /// Algorithm 1, initialize: the dataset was "read" by the experiment
  /// driver (shard), the network is the injected transport, and the enclave
  /// is initialized with the local partition.
  void initialize(TrustedInit init);

  /// Opens attestation sessions towards `neighbors` (pre-protocol phase).
  void start_attestation(const std::vector<NodeId>& neighbors);

  /// Churn-up event: starts the rejoin protocol (re-attestation + state
  /// resync with the online neighbors, DESIGN.md §6). The engine restarts
  /// the train timer once trusted().rejoining() clears.
  void begin_rejoin(const std::vector<NodeId>& online_neighbors);

  /// Deliver event: relays a network blob into the enclave (Algorithm 1's
  /// receive loop). For D-PSGD the enclave runs the epoch on last arrival.
  void on_deliver(const net::Envelope& envelope);

  /// Train-timer event: RMW trains on its period (§III-C1) with whatever
  /// arrived. For D-PSGD this runs a pipeline catch-up epoch when a full
  /// round is already buffered, and is a no-op otherwise — so it must only
  /// be scheduled when an epoch is actually due.
  void on_train_due();

  [[nodiscard]] TrustedNode& trusted() { return trusted_; }
  [[nodiscard]] const TrustedNode& trusted() const { return trusted_; }
  [[nodiscard]] enclave::Runtime& runtime() { return runtime_; }
  [[nodiscard]] const enclave::Runtime& runtime() const { return runtime_; }
  [[nodiscard]] NodeId id() const { return id_; }

 private:
  /// ocall_send proxy bound to this host (built first in the ctor so the
  /// by-value trusted_ can be constructed in the member-init list).
  [[nodiscard]] TrustedNode::SendFn make_send_fn();

  NodeId id_;
  enclave::Runtime runtime_;
  net::Transport& transport_;
  /// By value, not unique_ptr: one node = one contiguous block (host,
  /// runtime, enclave state), so the support::ObjectArena the simulator
  /// places hosts in packs *all* per-node state index-addressed and
  /// cache-adjacent (DESIGN.md §10).
  TrustedNode trusted_;
};

}  // namespace rex::core
