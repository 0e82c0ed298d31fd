// In-process transport with per-node traffic accounting, one inbox per
// destination, and two delivery disciplines.
//
// Sends always go to per-sender outboxes (no contention under node-parallel
// execution; a single sender never sends concurrently with itself). From
// there, two paths drain them:
//
//   Barrier path (synchronous rounds, attestation): flush_round() routes
//   every queued send into its destination's inbox sender by sender, so an
//   inbox holds its envelopes in (flush, sender id, send order) sequence,
//   and accounts traffic for both ends; drain_inbox() *moves* them out in
//   that order.
//
//   Event path (sim::SimEngine): take_outbox(src) moves a sender's queued
//   envelopes out (accounting the send side); the engine schedules one
//   Deliver event per envelope with per-edge simulated latency and calls
//   record_delivery() at the delivery timestamp. Envelopes never touch the
//   inboxes on this path — the engine hands them straight to the host.
//
// flush_round() is the only writer of the inboxes and runs single-threaded,
// so the mailboxes carry no locks.
//
// Traffic counters are cumulative: a caller that reports per-epoch traffic
// keeps its own reading from the previous epoch and subtracts it
// (sim::SimEngine's NodeStatus::traffic_mark, the rex_node epoch loop).
#pragma once

#include <vector>

#include "net/message.hpp"
#include "support/error.hpp"

namespace rex::net {

/// Cumulative per-node traffic counters.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  [[nodiscard]] std::uint64_t bytes_total() const {
    return bytes_sent + bytes_received;  // the paper's "data in + out"
  }
};

class Transport {
 public:
  explicit Transport(std::size_t node_count);

  [[nodiscard]] std::size_t node_count() const { return outboxes_.size(); }

  /// Queues an envelope from env.src. Thread-safe across distinct senders
  /// (each sender owns its outbox); a single sender must not send
  /// concurrently with itself. Inline (as are the other per-envelope
  /// accessors below): the event path crosses these once or more per
  /// delivered message, and at 10k nodes the out-of-line call was real
  /// profile time.
  void send(Envelope env) {
    check_node(env.src);
    check_node(env.dst);
    REX_REQUIRE(env.src != env.dst, "node sending to itself");
    outboxes_[env.src].push_back(std::move(env));
  }

  // ===== Barrier path =====

  /// Routes all queued sends into destination inboxes, sender by sender.
  /// Call at the round barrier only (single-threaded). Accounts sender and
  /// receiver traffic.
  void flush_round();

  /// Removes and returns everything deliverable to `node` in (flush,
  /// sender id, send order) sequence. Moves the envelopes — payloads are
  /// not copied.
  [[nodiscard]] std::vector<Envelope> drain_inbox(NodeId node);

  /// Allocation-free variant: drains into `out` (cleared first), so the
  /// per-round barrier drain recycles one caller-owned buffer instead of
  /// allocating a fresh vector per node per round.
  void drain_inbox(NodeId node, std::vector<Envelope>& out);

  /// Messages waiting for `node` (after flush_round()).
  [[nodiscard]] std::size_t inbox_size(NodeId node) const;

  // ===== Event path =====

  /// Appends to `out` (typically a recycled SlotPool vector) everything
  /// `src` queued since the last take, in send order. The caller owns
  /// delivery — and accounting: record_send() must be called per envelope
  /// when (if) it actually hits the wire. The engine may elide an envelope
  /// whose destination is known to be offline (DESIGN.md §6), and an elided
  /// envelope never consumed uplink.
  void take_outbox(NodeId src, std::vector<Envelope>& out);

  /// Envelopes currently queued in `src`'s outbox (cheap emptiness probe
  /// for the engine's control-plane flush).
  [[nodiscard]] std::size_t outbox_size(NodeId src) const {
    check_node(src);
    return outboxes_[src].size();
  }

  /// Accounts the send side for one envelope the engine is releasing onto
  /// the wire (the event-path counterpart of flush_round's accounting).
  /// Touches only env.src's counters, so calls for distinct senders are
  /// safe to run concurrently.
  void record_send(const Envelope& env) {
    TrafficStats& traffic = traffic_[env.src];
    traffic.messages_sent++;
    traffic.bytes_sent += env.wire_size();
  }

  /// Shared recycling pool for payload buffers: senders acquire encode
  /// scratch here and wrap it into SharedBytes::pooled, so payload storage
  /// cycles back after the last envelope referencing it is consumed.
  [[nodiscard]] BufferPool& payload_pool() { return payload_pool_; }

  /// Accounts the receive side for one envelope the engine is handing to
  /// its destination host. Touches only env.dst's counters, so concurrent
  /// calls for distinct destinations are safe.
  void record_delivery(const Envelope& env) {
    TrafficStats& traffic = traffic_[env.dst];
    traffic.messages_received++;
    traffic.bytes_received += env.wire_size();
  }

  // ===== Accounting =====

  /// Cumulative since construction; per-epoch traffic is the difference
  /// of two readings.
  [[nodiscard]] const TrafficStats& stats(NodeId node) const {
    check_node(node);
    return traffic_[node];
  }

  /// Sum of per-node sent bytes (every byte is counted once as sent and
  /// once as received).
  [[nodiscard]] std::uint64_t total_bytes_sent() const;

 private:
  void check_node(NodeId node) const {
    REX_REQUIRE(node < outboxes_.size(), "transport node id out of range");
  }

  /// Declared before the mailboxes on purpose: envelopes queued in them
  /// release payload storage back into this pool on destruction, so the
  /// pool must be destroyed last (members destruct in reverse order).
  BufferPool payload_pool_;
  /// Mailboxes drain completely between fills and are cleared, not
  /// shrunk, so steady state is allocation-free and an idle mailbox owns no
  /// heap (DESIGN.md §10).
  std::vector<std::vector<Envelope>> outboxes_;  // indexed by sender
  std::vector<std::vector<Envelope>> inboxes_;   // indexed by receiver
  std::vector<TrafficStats> traffic_;            // indexed by node
};

}  // namespace rex::net
