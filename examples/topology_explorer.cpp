// Topology explorer: the structural contrast behind §IV-A2.
//
// Generates the paper's two gossip topologies at both evaluation sizes (610
// and 50 nodes) and prints the graph statistics that drive convergence
// differences: degree, diameter, clustering coefficient — small world has
// high clustering and low diameter; Erdős–Rényi is less clustered and, at
// 50 nodes / p=5%, much sparser (the paper's explanation for the DNN/ER
// result, §IV-B-b).
//
// Also overlays a per-edge WAN link model (sim::LinkModel) on each topology
// and prints the resulting latency/bandwidth spread — the same seeded draws
// `bench_async_stragglers --wan` runs convergence over.
//
//   ./topology_explorer [seed] [wan-profile]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "graph/topology.hpp"
#include "sim/cost_model.hpp"

using namespace rex;
using namespace rex::graph;

namespace {

void describe(const char* name, const Graph& g) {
  std::printf("  %-22s %6zu nodes %7zu edges  deg %5.2f  diam %2zu  "
              "clustering %.3f\n",
              name, g.node_count(), g.edge_count(), g.average_degree(),
              g.diameter(), g.average_clustering_coefficient());
}

void describe_links(const Graph& g, const sim::LinkParams& params,
                    std::uint64_t seed) {
  const sim::CostParams defaults;
  const sim::LinkModel links(g, params, defaults.link_latency_s, seed);
  const sim::LinkModel::Stats lat = links.latency_stats();
  const sim::LinkModel::Stats bw = links.bandwidth_stats();
  std::printf("    wan links: %zu regions  latency %.2f/%.2f/%.2f ms  "
              "bandwidth %.1f/%.1f/%.1f MB/s (min/mean/max)\n",
              params.regions, lat.min * 1e3, lat.mean * 1e3, lat.max * 1e3,
              bw.min / 1e6, bw.mean / 1e6, bw.max / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 42;
  const std::string wan_profile = argc > 2 ? argv[2] : "wan";
  const sim::LinkParams wan = sim::make_wan_profile(wan_profile);
  Rng rng(seed);

  std::printf("paper parameters: SW(close=6, far=3%%), ER(p=5%%); "
              "wan profile: %s\n\n",
              wan_profile.c_str());
  for (std::size_t n : {610u, 50u}) {
    std::printf("n = %zu\n", n);
    const Graph sw = make_small_world(
        {.nodes = n, .close_connections = 6, .far_probability = 0.03}, rng);
    describe("small world", sw);
    describe_links(sw, wan, seed);
    const Graph er = make_erdos_renyi(
        {.nodes = n, .edge_probability = 0.05, .ensure_connected = true},
        rng);
    describe("erdos-renyi", er);
    describe_links(er, wan, seed);
    const Graph full = make_fully_connected(std::min<std::size_t>(n, 8));
    describe("fully connected (8)", full);

    // Metropolis-Hastings weights of node 0 (D-PSGD merge weights).
    const auto row = metropolis_hastings_row(er, 0);
    std::printf("  ER node 0: degree %zu, MH self-weight %.3f\n\n",
                er.degree(0), row.front());
  }
  return 0;
}
