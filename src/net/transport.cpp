#include "net/transport.hpp"

#include <iterator>

#include "support/error.hpp"

namespace rex::net {

namespace {
/// Moves every envelope of `mailbox` onto the end of `out`, in order, and
/// clears the mailbox without releasing its capacity.
void take_all(std::vector<Envelope>& mailbox, std::vector<Envelope>& out) {
  out.insert(out.end(), std::make_move_iterator(mailbox.begin()),
             std::make_move_iterator(mailbox.end()));
  mailbox.clear();
}
}  // namespace

Transport::Transport(std::size_t node_count)
    : outboxes_(node_count), inboxes_(node_count), traffic_(node_count) {}

void Transport::flush_round() {
  // Sender-major routing: each inbox receives its envelopes in (sender id,
  // send order) sequence, appended after anything an earlier flush left.
  for (std::vector<Envelope>& outbox : outboxes_) {
    for (Envelope& env : outbox) {
      record_send(env);
      record_delivery(env);
      inboxes_[env.dst].push_back(std::move(env));
    }
    outbox.clear();
  }
}

std::vector<Envelope> Transport::drain_inbox(NodeId node) {
  std::vector<Envelope> out;
  drain_inbox(node, out);
  return out;
}

void Transport::drain_inbox(NodeId node, std::vector<Envelope>& out) {
  check_node(node);
  out.clear();
  take_all(inboxes_[node], out);
}

std::size_t Transport::inbox_size(NodeId node) const {
  check_node(node);
  return inboxes_[node].size();
}

void Transport::take_outbox(NodeId src, std::vector<Envelope>& out) {
  check_node(src);
  take_all(outboxes_[src], out);
}

std::uint64_t Transport::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const TrafficStats& t : traffic_) total += t.bytes_sent;
  return total;
}

}  // namespace rex::net
