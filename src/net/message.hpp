// Network message envelope (the ZeroMQ substitution; DESIGN.md §1).
//
// The envelope metadata (src, dst, kind) travels in cleartext like TCP/ZMQ
// headers would; the payload is ciphertext between attested SGX nodes and
// plaintext in native runs (paper §III-B). The payload is a refcounted
// SharedBytes: a node fanning one blob out to k neighbors serializes (and
// stores) it once, and every per-edge envelope holds a reference — traffic
// accounting still charges each edge the full wire size, because that is
// what a real network would carry.
#pragma once

#include <cstdint>

#include "support/bytes.hpp"
#include "support/pool.hpp"

namespace rex::net {

using NodeId = std::uint32_t;

enum class MessageKind : std::uint8_t {
  kAttestation = 0,  // JSON handshake messages (cleartext by design)
  kProtocol = 1,     // REX payloads: raw-data batches or model blobs
  /// Rejoin state-resync exchange (DESIGN.md §6): a returning node's model
  /// pull request and the neighbor's model reply. A distinct header kind —
  /// not a payload kind — so the event engine can route resync traffic on
  /// the control path (released immediately, not at the end of the share
  /// stage) without decrypting anything.
  kResync = 2,
};

struct Envelope {
  NodeId src = 0;
  NodeId dst = 0;
  MessageKind kind = MessageKind::kProtocol;
  SharedBytes payload;
  /// Simulated delivery timestamps (not on the wire), stamped by the event
  /// engine when the envelope is released per edge: transmission end on the
  /// sender's uplink and arrival at the destination (the engine checks each
  /// delivery fires exactly at deliver_at_s). Zero on the barrier path,
  /// where delivery happens at the round barrier and only the round clock
  /// carries time. deliver_at_s - sent_at_s is the edge's one-way latency
  /// from the active sim::LinkModel.
  double sent_at_s = 0.0;
  double deliver_at_s = 0.0;
  /// Fault-injection tag stamped by sim::ScenarioHarness (DESIGN.md §8).
  /// Bookkeeping only — not on the wire and excluded from wire_size(): a
  /// real adversary's tampered bytes are the same length, and a lost packet
  /// still occupied the links it crossed before vanishing. Zero (kNone) on
  /// every envelope when no harness is installed.
  std::uint8_t fault = 0;
  /// Event-engine bookkeeping (not on the wire): set when the engine drops
  /// the envelope at its delivery (harness loss, receiver offline), so the
  /// serial phase's accounting sees the math phase's decision.
  bool dropped = false;

  /// Bytes on the wire: payload plus the fixed header.
  [[nodiscard]] std::size_t wire_size() const {
    return payload.size() + kHeaderSize;
  }

  static constexpr std::size_t kHeaderSize =
      2 * sizeof(NodeId) + sizeof(MessageKind) + sizeof(std::uint32_t);
};

}  // namespace rex::net
