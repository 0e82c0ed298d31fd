#include "graph/topology.hpp"

#include "support/error.hpp"

namespace rex::graph {

Graph make_small_world(const SmallWorldParams& params, Rng& rng) {
  const std::size_t n = params.nodes;
  const std::size_t k = params.close_connections;
  REX_REQUIRE(n >= 2, "small world needs at least 2 nodes");
  REX_REQUIRE(k >= 2 && k % 2 == 0, "close_connections must be even and >= 2");
  REX_REQUIRE(k < n, "close_connections must be below node count");

  Graph g(n);
  // Ring lattice: node v connects to its k/2 clockwise neighbors (the
  // counter-clockwise ones come from symmetry).
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t hop = 1; hop <= k / 2; ++hop) {
      const NodeId w = static_cast<NodeId>((v + hop) % n);
      // Watts–Strogatz rewiring: replace the lattice edge with a random
      // far-fetched one with probability far_probability.
      if (rng.bernoulli(params.far_probability)) {
        // Retry until a valid non-duplicate target is found; with k << n a
        // couple of attempts suffice. Keep the lattice edge after 32 misses
        // (degenerate dense graphs) so generation always terminates.
        bool rewired = false;
        for (int attempt = 0; attempt < 32 && !rewired; ++attempt) {
          const NodeId target = static_cast<NodeId>(rng.uniform(n));
          if (target != v && !g.has_edge(v, target)) {
            g.add_edge(v, target);
            rewired = true;
          }
        }
        if (rewired) continue;
      }
      g.add_edge(v, w);
    }
  }
  // The ring lattice backbone keeps the graph connected for p << 1; guard
  // against the unlikely disconnection from rewiring anyway.
  if (!g.is_connected()) {
    const auto components = g.connected_components();
    for (std::size_t c = 1; c < components.size(); ++c) {
      g.add_edge(components[0][rng.uniform(components[0].size())],
                 components[c][rng.uniform(components[c].size())]);
    }
  }
  return g;
}

Graph make_erdos_renyi(const ErdosRenyiParams& params, Rng& rng) {
  const std::size_t n = params.nodes;
  REX_REQUIRE(n >= 2, "erdos-renyi needs at least 2 nodes");
  REX_REQUIRE(params.edge_probability >= 0.0 && params.edge_probability <= 1.0,
              "edge probability must be in [0,1]");
  Graph g(n);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (rng.bernoulli(params.edge_probability)) g.add_edge(a, b);
    }
  }
  if (params.ensure_connected && !g.is_connected()) {
    // Paper §IV-A2b: "we ensure to make it connected by adding the missing
    // edges". Bridge every component to the first with one random edge.
    const auto components = g.connected_components();
    for (std::size_t c = 1; c < components.size(); ++c) {
      g.add_edge(components[0][rng.uniform(components[0].size())],
                 components[c][rng.uniform(components[c].size())]);
    }
  }
  return g;
}

Graph make_fully_connected(std::size_t nodes) {
  Graph g(nodes);
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = a + 1; b < nodes; ++b) g.add_edge(a, b);
  }
  return g;
}

}  // namespace rex::graph
