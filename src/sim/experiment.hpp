// Scenario assembly: one declarative description per paper experiment cell.
//
// Every bench binary builds Scenario values (dataset preset, topology,
// algorithm, sharing mode, model family, security mode) and calls
// run_scenario(); this is the single place where datasets are generated,
// split, partitioned and wired into the simulator, so all experiments stay
// comparable.
#pragma once

#include <string>

#include "core/config.hpp"
#include "data/movielens.hpp"
#include "data/partition.hpp"
#include "graph/topology.hpp"
#include "ml/dnn.hpp"
#include "ml/mf.hpp"
#include "sim/centralized.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace rex::sim {

enum class ModelKind { kMf, kDnn };
enum class TopologyKind { kSmallWorld, kErdosRenyi, kFullyConnected };

[[nodiscard]] inline const char* to_string(ModelKind kind) {
  return kind == ModelKind::kMf ? "MF" : "DNN";
}
[[nodiscard]] inline const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kSmallWorld: return "SW";
    case TopologyKind::kErdosRenyi: return "ER";
    case TopologyKind::kFullyConnected: return "FULL";
  }
  return "?";
}

enum class PartitionKind {
  kRoundRobin,  // the paper's placement (IID-ish cohorts)
  kByTaste,     // pathological non-IID (§IV-E future work): sorted cohorts
};

struct Scenario {
  std::string label;
  data::SyntheticConfig dataset = data::movielens_latest_config();
  TopologyKind topology = TopologyKind::kSmallWorld;
  /// 0 = one node per user (§IV-B-a); otherwise users spread per
  /// `partition` over `nodes` nodes.
  std::size_t nodes = 0;
  PartitionKind partition = PartitionKind::kRoundRobin;
  ModelKind model = ModelKind::kMf;
  core::RexConfig rex;

  // Topology parameters (§IV-A2: SW with 6 close connections and 3%
  // far-fetched probability; ER with p = 5%). Reduced-scale benches raise
  // the ER probability to preserve the paper's mean degree (~30 at 610
  // nodes), which drives the D-PSGD ER traffic amplification.
  std::size_t sw_close_connections = 6;
  double sw_far_probability = 0.03;
  double er_edge_probability = 0.05;

  // Paper hyperparameters (§IV-A3). The rest (MF regularization, the DNN's
  // embedding width and batching) are ml::MfConfig's and ml::DnnConfig's
  // defaults.
  std::size_t mf_embedding_dim = 10;
  std::size_t mf_sgd_steps_per_epoch = 500;
  float mf_learning_rate = 0.005f;

  /// Has no effect: MF user rows materialize on demand whenever users
  /// outnumber items, with no switch (DESIGN.md §10). Kept only for
  /// callers that still set it.
  bool lean_memory = false;

  std::size_t epochs = 100;
  double train_fraction = 0.7;
  std::uint64_t seed = 1;
  CostParams costs;
  std::size_t platforms = 4;
  std::size_t threads = 0;

  /// Scheduling discipline (see sim::EngineMode): synchronized rounds by
  /// default; event-driven per-node timelines for heterogeneity studies.
  EngineMode engine_mode = EngineMode::kBarrier;
  /// Per-node speed/straggler/churn knobs (inert at defaults).
  NodeDynamics dynamics;
  /// Open-loop serving traffic (DESIGN.md §9; inert at rate 0).
  QueryLoadConfig query_load;
  /// Adversarial fault schedule (DESIGN.md §8; inert when empty). Needs
  /// engine_mode == kEventDriven.
  FaultSchedule faults;
};

/// Prepared inputs of a scenario (exposed for tests and special benches).
struct ScenarioInputs {
  data::Dataset dataset;
  data::Split split;
  graph::Graph topology;
  std::vector<data::NodeShard> shards;
  ml::ModelFactory model_factory;
  std::size_t node_count = 0;
};

/// Generates dataset/split/topology/shards/factory for a scenario.
[[nodiscard]] ScenarioInputs prepare_scenario(const Scenario& scenario);

/// Prepares `inputs` (which must outlive the simulator — it owns the
/// topology) and assembles the fully-wired Simulator for a scenario; used
/// by run_scenario and by tests/benches that need engine access.
[[nodiscard]] Simulator make_scenario_simulator(const Scenario& scenario,
                                                ScenarioInputs& inputs);

/// Runs the decentralized scenario end to end.
[[nodiscard]] ExperimentResult run_scenario(const Scenario& scenario);

/// Runs the centralized equivalent (same dataset/split/model family).
[[nodiscard]] ExperimentResult run_scenario_centralized(
    const Scenario& scenario, std::size_t epochs);

/// Standard label "ALG, TOPO, MODE" (e.g. "D-PSGD, ER, REX").
[[nodiscard]] std::string scenario_label(const Scenario& scenario);

}  // namespace rex::sim
