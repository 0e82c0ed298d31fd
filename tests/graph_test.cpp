// Graph and topology tests: structural invariants of the generators the
// paper's §IV-A2 settings rely on, plus Metropolis–Hastings weight
// correctness (row-stochasticity, symmetry).
#include <gtest/gtest.h>

#include <numeric>

#include "graph/graph.hpp"
#include "graph/topology.hpp"
#include "support/error.hpp"

namespace rex::graph {
namespace {

TEST(Graph, AddEdgeBasics) {
  Graph g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));  // duplicate
  EXPECT_FALSE(g.add_edge(1, 0));  // duplicate, reversed
  EXPECT_FALSE(g.add_edge(2, 2));  // self loop
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, NeighborsSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  EXPECT_EQ(g.neighbors(2), (std::vector<NodeId>{0, 3, 4}));
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(Graph, OutOfRangeThrows) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 3), Error);
  EXPECT_THROW((void)g.has_edge(3, 0), Error);
  EXPECT_THROW((void)g.neighbors(5), Error);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  const auto components = g.connected_components();
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(components[1], (std::vector<NodeId>{2, 3}));
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.connected_components().size(), 1u);
}

TEST(Graph, EmptyAndSingleton) {
  EXPECT_TRUE(Graph(0).is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
  EXPECT_EQ(Graph(1).diameter(), 0u);
}

TEST(Graph, DiameterOfPathAndRing) {
  Graph path(5);
  for (NodeId v = 0; v + 1 < 5; ++v) path.add_edge(v, v + 1);
  EXPECT_EQ(path.diameter(), 4u);
  Graph ring(6);
  for (NodeId v = 0; v < 6; ++v) ring.add_edge(v, (v + 1) % 6);
  EXPECT_EQ(ring.diameter(), 3u);
}

TEST(Graph, DiameterRequiresConnected) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW((void)g.diameter(), Error);
}

TEST(Graph, ClusteringCoefficient) {
  // Triangle: coefficient 1.0 everywhere.
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(triangle.average_clustering_coefficient(), 1.0);
  // Star: center neighbors are unconnected -> 0.
  Graph star(4);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  EXPECT_DOUBLE_EQ(star.average_clustering_coefficient(), 0.0);
}

TEST(Graph, AverageDegree) {
  const Graph full = make_fully_connected(8);
  EXPECT_DOUBLE_EQ(full.average_degree(), 7.0);
  EXPECT_EQ(full.edge_count(), 28u);  // the paper's 8-node / 28-link setup
}

TEST(MetropolisHastings, WeightFormula) {
  EXPECT_DOUBLE_EQ(metropolis_hastings_weight(3, 5), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(metropolis_hastings_weight(5, 3), 1.0 / 6.0);  // symmetric
  EXPECT_DOUBLE_EQ(metropolis_hastings_weight(0, 0), 1.0);
}

TEST(MetropolisHastings, RowSumsToOne) {
  Rng rng(3);
  const Graph g = make_erdos_renyi({.nodes = 40, .edge_probability = 0.15}, rng);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto row = metropolis_hastings_row(g, v);
    ASSERT_EQ(row.size(), g.degree(v) + 1);
    const double sum = std::accumulate(row.begin(), row.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_GE(row.front(), 0.0);  // self weight non-negative
  }
}

class SmallWorldSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SmallWorldSweep, StructuralInvariants) {
  const std::size_t n = GetParam();
  Rng rng(42);
  const Graph g = make_small_world(
      {.nodes = n, .close_connections = 6, .far_probability = 0.03}, rng);
  EXPECT_EQ(g.node_count(), n);
  EXPECT_TRUE(g.is_connected());
  // Rewiring preserves the edge budget within a small slack (failed
  // rewiring attempts keep lattice edges; duplicates are dropped).
  EXPECT_NEAR(static_cast<double>(g.edge_count()), 3.0 * static_cast<double>(n),
              0.05 * 3.0 * static_cast<double>(n) + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SmallWorldSweep,
                         ::testing::Values(10, 50, 128, 610));

TEST(SmallWorld, PaperScaleProperties) {
  // §IV-A2a: small-world graphs have low diameter and high clustering
  // compared to ER graphs of the same size/degree.
  Rng rng(7);
  const Graph sw = make_small_world(
      {.nodes = 610, .close_connections = 6, .far_probability = 0.03}, rng);
  Rng rng2(7);
  const Graph er = make_erdos_renyi(
      {.nodes = 610, .edge_probability = 6.0 / 609.0}, rng2);
  EXPECT_GT(sw.average_clustering_coefficient(),
            5.0 * er.average_clustering_coefficient());
}

TEST(SmallWorld, Deterministic) {
  Rng a(5), b(5);
  const Graph g1 = make_small_world({.nodes = 64}, a);
  const Graph g2 = make_small_world({.nodes = 64}, b);
  for (NodeId v = 0; v < 64; ++v) {
    EXPECT_EQ(g1.neighbors(v), g2.neighbors(v));
  }
}

TEST(SmallWorld, ParameterValidation) {
  Rng rng(1);
  EXPECT_THROW((void)make_small_world({.nodes = 1}, rng), Error);
  EXPECT_THROW(
      (void)make_small_world({.nodes = 10, .close_connections = 3}, rng),
      Error);
  EXPECT_THROW(
      (void)make_small_world({.nodes = 4, .close_connections = 6}, rng),
      Error);
}

class ErdosRenyiSweep : public ::testing::TestWithParam<double> {};

TEST_P(ErdosRenyiSweep, ConnectedWithRepair) {
  Rng rng(11);
  const Graph g = make_erdos_renyi(
      {.nodes = 100, .edge_probability = GetParam(), .ensure_connected = true},
      rng);
  EXPECT_TRUE(g.is_connected());
}

INSTANTIATE_TEST_SUITE_P(Probabilities, ErdosRenyiSweep,
                         ::testing::Values(0.001, 0.01, 0.05, 0.2));

TEST(ErdosRenyi, EdgeCountMatchesProbability) {
  Rng rng(13);
  const std::size_t n = 200;
  const double p = 0.05;
  const Graph g = make_erdos_renyi(
      {.nodes = n, .edge_probability = p, .ensure_connected = false}, rng);
  const double expected = p * static_cast<double>(n * (n - 1)) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.edge_count()), expected, 0.15 * expected);
}

TEST(ErdosRenyi, WithoutRepairCanDisconnect) {
  // With p ~ 0, the graph is certainly disconnected.
  Rng rng(17);
  const Graph g = make_erdos_renyi(
      {.nodes = 50, .edge_probability = 0.0, .ensure_connected = false}, rng);
  EXPECT_FALSE(g.is_connected());
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Topology, FullyConnectedHasEveryPair) {
  const Graph full = make_fully_connected(3);
  EXPECT_EQ(full.edge_count(), 3u);
}

}  // namespace
}  // namespace rex::graph
