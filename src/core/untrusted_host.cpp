#include "core/untrusted_host.hpp"

#include "support/error.hpp"

namespace rex::core {

UntrustedHost::UntrustedHost(const RexConfig& config, NodeId id,
                             const enclave::EnclaveIdentity& identity,
                             const enclave::QuotingEnclave* quoting_enclave,
                             const enclave::DcapVerifier* verifier,
                             ml::ModelFactory model_factory,
                             std::uint64_t seed, net::Transport& transport)
    : id_(id),
      runtime_(config.security, config.epc),
      transport_(transport),
      trusted_(config, id, runtime_, identity, quoting_enclave, verifier,
               std::move(model_factory), seed, make_send_fn(),
               transport.payload_pool()) {}

TrustedNode::SendFn UntrustedHost::make_send_fn() {
  // ocall_send (Algorithm 1 lines 7-8): wrap the enclave's output blob into
  // an envelope and hand it to the network. The blob is refcounted, so a
  // fan-out passes the same storage through here once per edge.
  return [this](NodeId dst, net::MessageKind kind, SharedBytes blob) {
    net::Envelope env;
    env.src = id_;
    env.dst = dst;
    env.kind = kind;
    env.payload = std::move(blob);
    transport_.send(std::move(env));
  };
}

void UntrustedHost::initialize(TrustedInit init) {
  trusted_.ecall_init(std::move(init));
}

void UntrustedHost::start_attestation(const std::vector<NodeId>& neighbors) {
  trusted_.start_attestation(neighbors);
}

void UntrustedHost::begin_rejoin(const std::vector<NodeId>& online_neighbors) {
  trusted_.begin_rejoin(online_neighbors);
}

void UntrustedHost::on_deliver(const net::Envelope& envelope) {
  REX_REQUIRE(envelope.dst == id_, "envelope delivered to the wrong host");
  switch (envelope.kind) {
    case net::MessageKind::kAttestation:
      trusted_.on_attestation_message(envelope.src, envelope.payload);
      break;
    case net::MessageKind::kProtocol:
      trusted_.ecall_input(envelope.src, envelope.payload);
      break;
    case net::MessageKind::kResync:
      trusted_.ecall_resync(envelope.src, envelope.payload);
      break;
  }
}

void UntrustedHost::on_train_due() { trusted_.ecall_train_due(); }

}  // namespace rex::core
