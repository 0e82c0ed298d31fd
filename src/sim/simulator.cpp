#include "sim/simulator.hpp"

#include "sim/experiment.hpp"
#include "support/error.hpp"

namespace rex::sim {

Simulator::Simulator(const Scenario& scenario, ScenarioInputs& inputs)
    : topology_(&inputs.topology),
      rex_(scenario.rex),
      cost_model_(scenario.costs),
      shards_(std::move(inputs.shards)) {
  const std::size_t n = topology_->node_count();
  REX_REQUIRE(n >= 2, "simulator needs at least two nodes");
  REX_REQUIRE(scenario.platforms >= 1, "at least one platform");

  result_.label =
      scenario.label.empty() ? scenario_label(scenario) : scenario.label;
  // Per-edge links: drawn once here (single-threaded, keyed per edge) so
  // every discipline and worker-thread count sees identical values.
  link_model_ = std::make_unique<LinkModel>(
      *topology_, cost_model_.params().wan, cost_model_.params().link_latency_s,
      scenario.seed);
  transport_ = std::make_unique<net::Transport>(n);
  pool_ = std::make_unique<ThreadPool>(scenario.threads);

  // Platform services: `platforms` machines, nodes assigned round-robin
  // (the paper runs 2 processes per machine on 4 SGX servers). The shared
  // ClusterContext keeps these derivations identical between this
  // single-process simulator and the multi-process socket deployment
  // (DESIGN.md §11).
  cluster_ = std::make_unique<core::ClusterContext>(scenario.seed,
                                                    scenario.platforms);

  // Byzantine fault kinds need the enclaves to count-and-discard hostile
  // envelopes rather than abort the run (core/config.hpp) — decided before
  // the hosts snapshot rex_.
  const FaultSchedule& faults = scenario.faults;
  if (faults.has(FaultKind::kTamper) || faults.has(FaultKind::kReplay) ||
      faults.has(FaultKind::kDuplicate)) {
    rex_.tolerate_byzantine = true;
  }

  for (core::NodeId id = 0; id < n; ++id) {
    hosts_.emplace_back(rex_, id, cluster_->identity(),
                        cluster_->quoting_enclave(id), cluster_->verifier(),
                        inputs.model_factory, cluster_->node_seed(id),
                        *transport_);
  }

  SimEngine::Config engine_config;
  engine_config.mode = scenario.engine_mode;
  engine_config.dynamics = scenario.dynamics;
  engine_config.seed = scenario.seed;
  engine_config.query_load = scenario.query_load;
  engine_ = std::make_unique<SimEngine>(rex_, *topology_, hosts_,
                                        *transport_, cost_model_,
                                        *link_model_, *pool_, result_,
                                        engine_config);

  if (faults.enabled()) {
    harness_ = std::make_unique<ScenarioHarness>(
        *engine_, faults,
        rex_.security != enclave::SecurityMode::kNative, result_);
    engine_->set_harness(harness_.get());
  }
}

void Simulator::run_attestation() { engine_->run_attestation(); }

void Simulator::initialize_nodes() {
  engine_->initialize(std::move(shards_));
  shards_.clear();
}

void Simulator::run_epochs(std::size_t epochs) {
  engine_->run_epochs(epochs);
}

void Simulator::run(std::size_t epochs) {
  run_attestation();
  initialize_nodes();
  run_epochs(epochs);
  // End-of-run invariant sweep + ledger reconciliation (DESIGN.md §8):
  // throws rex::Error naming the violated invariant, never returns bad data.
  if (harness_ != nullptr) harness_->finalize();
}

}  // namespace rex::sim
