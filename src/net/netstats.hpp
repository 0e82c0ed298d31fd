// Per-peer network ledger for the socket transport (DESIGN.md §11
// "Netstats ledger").
//
// The simulation accounts traffic through net::Transport's per-node
// counters; a real deployment additionally needs per-*peer* operational
// state — how many bytes each link carried, how often it dropped and came
// back, and what the link's round-trip time looks like right now. Each
// rex_node keeps one NetStats ledger and dumps it as CSV next to the
// trajectory CSVs (write_netstats_csv; schema in docs/reporting.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "net/message.hpp"

namespace rex::net {

struct PeerStats {
  // Socket-level byte counters (frames + framing overhead, i.e. what the
  // kernel actually carried for this peer — a superset of the envelope
  // wire_size accounting in net::Transport).
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t frames_rx = 0;
  /// Data (envelope) frames only, excluding hello/ping/pong/done control.
  std::uint64_t data_tx = 0;
  std::uint64_t data_rx = 0;

  /// Times a live connection to this peer was established. The first
  /// successful connect counts here and not in `reconnects`.
  std::uint64_t connects = 0;
  /// Re-establishments after a drop: connects minus the first.
  std::uint64_t reconnects = 0;

  // RTT estimate from PING/PONG exchanges, in wall-clock seconds. `rtt_s`
  // is the classic RFC 6298-style EWMA (alpha = 1/8) over samples;
  // min/max/last expose the spread.
  double rtt_s = 0.0;
  double rtt_last_s = 0.0;
  double rtt_min_s = 0.0;
  double rtt_max_s = 0.0;
  std::uint64_t rtt_samples = 0;

  void record_rtt(double sample_s) {
    rtt_last_s = sample_s;
    if (rtt_samples == 0) {
      rtt_s = rtt_min_s = rtt_max_s = sample_s;
    } else {
      rtt_s += (sample_s - rtt_s) / 8.0;
      if (sample_s < rtt_min_s) rtt_min_s = sample_s;
      if (sample_s > rtt_max_s) rtt_max_s = sample_s;
    }
    ++rtt_samples;
  }

  void record_connect() {
    if (connects > 0) ++reconnects;
    ++connects;
  }
};

/// Per-peer ledger: one PeerStats per remote node this transport ever
/// exchanged bytes with. Ordered map so CSV rows come out sorted by peer id.
class NetStats {
 public:
  [[nodiscard]] PeerStats& peer(NodeId id) { return peers_[id]; }
  [[nodiscard]] const std::map<NodeId, PeerStats>& peers() const {
    return peers_;
  }

  [[nodiscard]] std::uint64_t total_reconnects() const {
    std::uint64_t total = 0;
    for (const auto& [id, stats] : peers_) total += stats.reconnects;
    return total;
  }

 private:
  std::map<NodeId, PeerStats> peers_;
};

/// Writes the ledger as CSV, one row per peer:
/// self,peer,bytes_tx,bytes_rx,frames_tx,frames_rx,data_tx,data_rx,
/// connects,reconnects,rtt_ewma_s,rtt_last_s,rtt_min_s,rtt_max_s,
/// rtt_samples. Schema documented in docs/reporting.md.
void write_netstats_csv(const std::string& path, NodeId self,
                        const NetStats& stats);

}  // namespace rex::net
