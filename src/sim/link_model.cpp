#include "sim/link_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace rex::sim {

namespace {

/// Circular distance between regions laid out on a ring — the cheapest geo
/// embedding that still yields a graded near/far structure.
std::size_t ring_distance(std::size_t a, std::size_t b, std::size_t regions) {
  const std::size_t d = a > b ? a - b : b - a;
  return std::min(d, regions - d);
}

}  // namespace

LinkParams make_wan_profile(const std::string& name) {
  LinkParams p;
  p.enabled = true;
  if (name == "lan") {
    // The paper's testbed with mild realism: one site, jittered gigabit.
    p.regions = 1;
    p.intra_region_latency_s = 100e-6;
    p.inter_region_step_s = 0.0;
    p.latency_lognormal_sigma = 0.15;
    p.edge_bandwidth_bytes_per_s = 125e6;
    p.bandwidth_lognormal_sigma = 0.1;
    p.min_bandwidth_bytes_per_s = 12.5e6;
  } else if (name == "wan") {
    // Defaults: 4 regions, ~100 Mbps edges, moderate jitter.
  } else if (name == "geo") {
    // Continental spread: more regions, slower and noisier edges.
    p.regions = 8;
    p.intra_region_latency_s = 0.5e-3;
    p.inter_region_step_s = 25e-3;
    p.latency_lognormal_sigma = 0.5;
    p.edge_bandwidth_bytes_per_s = 6.25e6;  // 50 Mbps
    p.bandwidth_lognormal_sigma = 0.8;
    p.min_bandwidth_bytes_per_s = 0.625e6;  // 5 Mbps
  } else {
    REX_REQUIRE(false, "unknown --wan profile: " + name +
                           " (expected lan | wan | geo)");
  }
  return p;
}

LinkModel::LinkModel(const graph::Graph& topology, const LinkParams& params,
                     double default_latency_s, std::uint64_t seed)
    : params_(params), default_latency_s_(default_latency_s) {
  if (!params_.enabled) return;
  REX_REQUIRE(params_.regions >= 1, "link model needs at least one region");
  REX_REQUIRE(params_.min_bandwidth_bytes_per_s > 0.0,
              "link model bandwidth floor must be positive");
  heterogeneous_ = true;

  const std::size_t n = topology.node_count();
  // Region assignment: one derived stream, nodes visited in id order — the
  // same assignment for any construction site with the same (seed, n).
  Rng region_rng = Rng(seed ^ 0x6E0F11E5ULL).derive(0);
  regions_.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    regions_[id] = params_.regions == 1
                       ? 0
                       : static_cast<std::uint32_t>(
                             region_rng.uniform(params_.regions));
  }

  // CSR over the sorted adjacency; one undirected edge id per {u < v}.
  offsets_.resize(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    offsets_[u + 1] = offsets_[u] + topology.degree(static_cast<graph::NodeId>(u));
  }
  targets_.resize(offsets_[n]);
  slot_edge_.resize(offsets_[n]);
  edges_.reserve(topology.edge_count());
  edge_latency_.reserve(topology.edge_count());
  edge_bandwidth_.reserve(topology.edge_count());

  const Rng edge_base(seed ^ 0xED6E11ACULL);
  for (std::size_t u = 0; u < n; ++u) {
    const auto& neighbors = topology.neighbors(static_cast<graph::NodeId>(u));
    std::size_t s = offsets_[u];
    for (const graph::NodeId v : neighbors) {
      targets_[s] = v;
      if (u < v) {
        const std::uint32_t e = static_cast<std::uint32_t>(edges_.size());
        edges_.emplace_back(static_cast<graph::NodeId>(u), v);
        // One independent stream per undirected edge, keyed by (u, v):
        // identical draws regardless of traversal order or which discipline
        // builds the model (DESIGN.md §5 "Seeding").
        Rng rng = edge_base.derive((static_cast<std::uint64_t>(u) << 32) |
                                   static_cast<std::uint64_t>(v));
        const std::size_t dist =
            ring_distance(regions_[u], regions_[v], params_.regions);
        double lat = params_.intra_region_latency_s +
                     params_.inter_region_step_s * static_cast<double>(dist);
        if (params_.latency_lognormal_sigma > 0.0) {
          lat *= std::exp(params_.latency_lognormal_sigma * rng.normal());
        }
        double bw = params_.edge_bandwidth_bytes_per_s;
        if (params_.bandwidth_lognormal_sigma > 0.0) {
          bw *= std::exp(params_.bandwidth_lognormal_sigma * rng.normal());
        }
        bw = std::max(bw, params_.min_bandwidth_bytes_per_s);
        edge_latency_.push_back(lat);
        edge_bandwidth_.push_back(bw);
        slot_edge_[s] = e;
      }
      ++s;
    }
  }
  // Mirror the edge ids into the v > u slots now that every id exists.
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t s = offsets_[u]; s < offsets_[u + 1]; ++s) {
      const graph::NodeId v = targets_[s];
      if (v < u) {
        slot_edge_[s] = slot_edge_[slot(v, static_cast<graph::NodeId>(u))];
      }
    }
  }

  const auto summarize = [](const std::vector<double>& values) {
    Stats stats;
    if (values.empty()) return stats;
    stats.min = std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (const double v : values) {
      stats.min = std::min(stats.min, v);
      stats.max = std::max(stats.max, v);
      sum += v;
    }
    stats.mean = sum / static_cast<double>(values.size());
    return stats;
  };
  latency_stats_ = summarize(edge_latency_);
  bandwidth_stats_ = summarize(edge_bandwidth_);
}

std::size_t LinkModel::slot(graph::NodeId u, graph::NodeId v) const {
  const auto begin = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
  const auto end = targets_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
  const auto it = std::lower_bound(begin, end, v);
  REX_REQUIRE(it != end && *it == v,
              "link model query for a non-edge: " + std::to_string(u) + "-" +
                  std::to_string(v));
  return static_cast<std::size_t>(it - targets_.begin());
}

SimTime LinkModel::latency(graph::NodeId u, graph::NodeId v) const {
  if (!heterogeneous_) return SimTime{default_latency_s_};
  return SimTime{edge_latency_[slot_edge_[slot(u, v)]]};
}

std::size_t LinkModel::edge_id(graph::NodeId u, graph::NodeId v) const {
  REX_REQUIRE(heterogeneous_, "edge ids exist only for heterogeneous models");
  return slot_edge_[slot(u, v)];
}

}  // namespace rex::sim
