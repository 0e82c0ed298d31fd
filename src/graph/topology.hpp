// Topology generators (paper §IV-A2).
//
// Small World: Watts–Strogatz — ring lattice with `close_connections`
// neighbors per node, each edge rewired to a random far target with
// probability `far_probability` (the paper used boost's generator with 610/50
// nodes, 6 close connections, 3% far-fetched probability).
//
// Erdős–Rényi: G(n, p) with p = 5%, made connected by adding the missing
// edges between components, exactly as §IV-A2b describes.
#pragma once

#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace rex::graph {

struct SmallWorldParams {
  std::size_t nodes = 50;
  std::size_t close_connections = 6;  // ring-lattice degree (even)
  double far_probability = 0.03;      // rewiring probability
};

struct ErdosRenyiParams {
  std::size_t nodes = 50;
  double edge_probability = 0.05;
  bool ensure_connected = true;
};

/// Generates a Watts–Strogatz small-world graph. Requires
/// close_connections even, >= 2, and < nodes.
[[nodiscard]] Graph make_small_world(const SmallWorldParams& params, Rng& rng);

/// Generates an Erdős–Rényi random graph; when ensure_connected, bridges
/// components with extra random edges afterwards.
[[nodiscard]] Graph make_erdos_renyi(const ErdosRenyiParams& params, Rng& rng);

/// Complete graph on n nodes (the paper's 8-node SGX testbed topology).
[[nodiscard]] Graph make_fully_connected(std::size_t nodes);

}  // namespace rex::graph
