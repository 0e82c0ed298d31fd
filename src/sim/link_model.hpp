// Per-edge WAN latency/bandwidth model (DESIGN.md §5 "Network link model").
//
// The paper's testbed is a LAN (§IV-A5), so the CostModel charges one global
// link latency and bandwidth. LinkModel generalizes that to heterogeneous
// deployments: every topology edge gets its own one-way latency and
// bandwidth, drawn deterministically from a seeded geo profile (nodes are
// assigned to regions; inter-region edges pay a base RTT proportional to
// region distance, times a log-normal jitter — DESIGN.md §5
// "Distributions"), and senders serialize their wire occupancy through a
// per-node TxQueue instead of paying a k-neighbor fan-out k times in
// parallel (DESIGN.md §5 "Queueing discipline").
//
// The homogeneous default (LinkParams::enabled == false) stores nothing and
// returns exactly the CostParams globals, so barrier-discipline metrics are
// bit-identical to the historical single-latency engine; the model is
// something you opt into per scenario (`Scenario::costs.wan`, bench flag
// `--wan <profile>`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "support/sim_clock.hpp"

namespace rex::sim {

/// Knobs of the per-edge WAN model. Inert at the defaults (enabled ==
/// false): every edge then shares CostParams::link_latency_s /
/// bandwidth_bytes_per_s and no sender queueing is applied. Enabled, every
/// sender serializes its envelopes through its TxQueue.
struct LinkParams {
  /// Master switch. Off = homogeneous LAN (the paper's testbed).
  bool enabled = false;
  /// Geo regions nodes are uniformly assigned to (ring layout: the base
  /// latency between regions grows with their circular distance).
  std::size_t regions = 4;
  /// One-way base latency of an intra-region edge.
  double intra_region_latency_s = 1e-3;
  /// Added one-way base latency per unit of ring distance between regions.
  double inter_region_step_s = 15e-3;
  /// Log-normal sigma of the per-edge latency jitter multiplier
  /// exp(sigma * N(0,1)) applied to the base latency (0 = exact base).
  double latency_lognormal_sigma = 0.3;
  /// Mean of the per-edge bandwidth draw.
  double edge_bandwidth_bytes_per_s = 12.5e6;  // 100 Mbps
  /// Log-normal sigma of the per-edge bandwidth draw (0 = exact mean).
  double bandwidth_lognormal_sigma = 0.5;
  /// Floor applied after the bandwidth draw (keeps tx times finite).
  double min_bandwidth_bytes_per_s = 1.25e6;  // 10 Mbps
};

/// Named WAN presets for the bench `--wan <profile>` flag: "lan", "wan" or
/// "geo". Throws on an unknown name.
[[nodiscard]] LinkParams make_wan_profile(const std::string& name);

/// Per-sender wire-occupancy queue (DESIGN.md §5 "Queueing discipline").
/// transmit() charges one envelope's serialization on the sender's uplink:
/// the transmission starts when both the payload is released and the wire is
/// free, so k simultaneous shares complete after the *sum* of their tx
/// times, not the max.
struct TxQueue {
  SimTime free_at;

  /// Returns the time the envelope finishes transmitting and advances the
  /// wire-busy horizon to it.
  SimTime transmit(SimTime release, SimTime tx_time) {
    const SimTime start = std::max(release, free_at);
    free_at = start + tx_time;
    return free_at;
  }
};

class LinkModel {
 public:
  /// Aggregate over the model's edges (bench/report summaries).
  struct Stats {
    double min = 0.0;
    double mean = 0.0;
    double max = 0.0;
  };

  /// Homogeneous model: every query returns the global defaults.
  LinkModel() = default;

  /// Builds the per-edge model over `topology`. When `params.enabled` is
  /// false this stores nothing and behaves exactly like the default
  /// constructor with the given global latency. Draws are keyed per
  /// undirected edge (DESIGN.md §5 "Seeding"): the same (seed, topology)
  /// pair yields the same edge values regardless of construction order,
  /// worker-thread count or scheduling discipline.
  LinkModel(const graph::Graph& topology, const LinkParams& params,
            double default_latency_s, std::uint64_t seed);

  /// True when per-edge values are in force (enabled, non-degenerate).
  [[nodiscard]] bool heterogeneous() const { return heterogeneous_; }
  [[nodiscard]] const LinkParams& params() const { return params_; }

  /// Undirected edges carrying per-edge values (0 when homogeneous).
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// One-way propagation latency of edge {u, v}. Homogeneous: the global
  /// default for any pair. Heterogeneous: requires {u, v} to be a topology
  /// edge (throws otherwise).
  [[nodiscard]] SimTime latency(graph::NodeId u, graph::NodeId v) const;

  /// Stable id of undirected edge {u, v} in [0, edge_count()); indexes the
  /// engine's per-edge delivery counters. Heterogeneous models only.
  [[nodiscard]] std::size_t edge_id(graph::NodeId u, graph::NodeId v) const;

  /// Endpoints (u < v) of undirected edge `e`.
  [[nodiscard]] std::pair<graph::NodeId, graph::NodeId> edge(
      std::size_t e) const {
    return edges_[e];
  }

  /// Latency / bandwidth of undirected edge `e` (heterogeneous only).
  [[nodiscard]] double edge_latency_s(std::size_t e) const {
    return edge_latency_[e];
  }
  [[nodiscard]] double edge_bandwidth_bytes_per_s(std::size_t e) const {
    return edge_bandwidth_[e];
  }

  /// Geo region of `node` (0 when homogeneous).
  [[nodiscard]] std::size_t region(graph::NodeId node) const {
    return heterogeneous_ ? regions_[node] : 0;
  }

  /// Propagation latency one synchronized barrier round charges: the global
  /// default when homogeneous (bit-identical to the historical engine), the
  /// slowest edge when heterogeneous — a barrier waits for its worst link.
  [[nodiscard]] SimTime round_latency() const {
    return SimTime{heterogeneous_ ? latency_stats_.max : default_latency_s_};
  }

  [[nodiscard]] Stats latency_stats() const { return latency_stats_; }
  [[nodiscard]] Stats bandwidth_stats() const { return bandwidth_stats_; }

 private:
  /// Directed slot of (u, v) in the CSR arrays (binary search over the
  /// sorted neighbor list; throws when {u, v} is not an edge).
  [[nodiscard]] std::size_t slot(graph::NodeId u, graph::NodeId v) const;

  LinkParams params_;
  bool heterogeneous_ = false;
  double default_latency_s_ = 100e-6;

  // CSR over the topology's sorted adjacency: per directed (u, v) slot the
  // undirected edge id; per undirected edge the drawn values. Empty in the
  // homogeneous default.
  std::vector<std::size_t> offsets_;          // node -> first slot
  std::vector<graph::NodeId> targets_;        // slot -> neighbor
  std::vector<std::uint32_t> slot_edge_;      // slot -> undirected edge id
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges_;  // id -> (u<v)
  std::vector<double> edge_latency_;          // id -> one-way seconds
  std::vector<double> edge_bandwidth_;        // id -> bytes/s
  std::vector<std::uint32_t> regions_;        // node -> region
  Stats latency_stats_;
  Stats bandwidth_stats_;
};

}  // namespace rex::sim
