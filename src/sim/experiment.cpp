#include "sim/experiment.hpp"

#include <memory>

#include "support/error.hpp"

namespace rex::sim {

namespace {

graph::Graph build_topology(const Scenario& scenario, std::size_t n,
                            Rng& rng) {
  switch (scenario.topology) {
    case TopologyKind::kSmallWorld:
      // §IV-A2a: 6 close connections, 3% far-fetched probability.
      return graph::make_small_world(
          {.nodes = n,
           .close_connections = scenario.sw_close_connections,
           .far_probability = scenario.sw_far_probability},
          rng);
    case TopologyKind::kErdosRenyi:
      // §IV-A2b: p = 5% (at 610 nodes), made connected.
      return graph::make_erdos_renyi(
          {.nodes = n,
           .edge_probability = scenario.er_edge_probability,
           .ensure_connected = true},
          rng);
    case TopologyKind::kFullyConnected:
      return graph::make_fully_connected(n);
  }
  REX_REQUIRE(false, "unknown topology kind");
  return graph::Graph{};
}

}  // namespace

ScenarioInputs prepare_scenario(const Scenario& scenario) {
  ScenarioInputs inputs;
  inputs.dataset = data::generate_synthetic(scenario.dataset);
  Rng split_rng(scenario.seed ^ 0x5B717);
  inputs.split =
      data::train_test_split(inputs.dataset, scenario.train_fraction,
                             split_rng);

  inputs.node_count =
      scenario.nodes == 0 ? inputs.dataset.n_users : scenario.nodes;
  Rng topo_rng(scenario.seed ^ 0x707010);
  inputs.topology = build_topology(scenario, inputs.node_count, topo_rng);

  if (scenario.nodes == 0) {
    inputs.shards =
        data::partition_one_user_per_node(inputs.dataset, inputs.split);
  } else if (scenario.partition == PartitionKind::kByTaste) {
    inputs.shards = data::partition_users_by_taste(inputs.dataset,
                                                   inputs.split,
                                                   scenario.nodes);
  } else {
    inputs.shards = data::partition_users_round_robin(inputs.dataset,
                                                      inputs.split,
                                                      scenario.nodes);
  }

  const auto n_users = inputs.dataset.n_users;
  const auto n_items = inputs.dataset.n_items;
  const float global_mean = static_cast<float>(inputs.dataset.mean_rating());
  // Decentralized averaging assumes a COMMON model initialization across
  // nodes (D-PSGD's shared x_0; FedAvg practice). Averaging independently
  // initialized networks mixes misaligned hidden features and stalls
  // convergence — most visibly for the DNN. The model is therefore built
  // once, from a fixed init stream derived from the experiment seed, and
  // the factory hands every caller a copy of it, ignoring the per-node
  // RNG. Concurrent calls only read the shared model (clone() is const).
  Rng init_rng(scenario.seed ^ 0x1217C0);
  std::shared_ptr<const ml::RecModel> initial;
  if (scenario.model == ModelKind::kMf) {
    ml::MfConfig config;
    config.n_users = n_users;
    config.n_items = n_items;
    config.embedding_dim = scenario.mf_embedding_dim;
    config.learning_rate = scenario.mf_learning_rate;
    config.global_mean = global_mean;
    config.sgd_steps_per_epoch = scenario.mf_sgd_steps_per_epoch;
    initial = std::make_shared<const ml::MfModel>(config, init_rng);
  } else {
    ml::DnnConfig config;
    config.n_users = n_users;
    config.n_items = n_items;
    config.output_bias_init = global_mean;
    initial = std::make_shared<const ml::DnnModel>(config, init_rng);
  }
  inputs.model_factory = [initial](Rng&) { return initial->clone(); };
  return inputs;
}

Simulator make_scenario_simulator(const Scenario& scenario,
                                  ScenarioInputs& inputs) {
  inputs = prepare_scenario(scenario);
  return Simulator(scenario, inputs);
}

ExperimentResult run_scenario(const Scenario& scenario) {
  ScenarioInputs inputs;
  Simulator simulator = make_scenario_simulator(scenario, inputs);
  simulator.run(scenario.epochs);
  return simulator.result();
}

ExperimentResult run_scenario_centralized(const Scenario& scenario,
                                          std::size_t epochs) {
  ScenarioInputs inputs = prepare_scenario(scenario);
  CentralizedSetup setup;
  setup.train = std::move(inputs.split.train);
  setup.test = std::move(inputs.split.test);
  setup.model_factory = inputs.model_factory;
  setup.seed = scenario.seed ^ 0xCE17;
  setup.costs = scenario.costs;
  setup.label = "Centralized";
  return run_centralized(std::move(setup), epochs);
}

std::string scenario_label(const Scenario& scenario) {
  std::string label = core::to_string(scenario.rex.algorithm);
  label += ", ";
  label += to_string(scenario.topology);
  label += ", ";
  label += core::to_string(scenario.rex.sharing);
  if (scenario.rex.security == enclave::SecurityMode::kSgxSimulated) {
    label += " (SGX)";
  }
  return label;
}

}  // namespace rex::sim
