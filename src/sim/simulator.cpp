#include "sim/simulator.hpp"

#include "support/error.hpp"

namespace rex::sim {

Simulator::Simulator(Setup setup)
    : topology_(setup.topology),
      rex_(setup.rex),
      cost_model_(setup.costs),
      shards_(std::move(setup.shards)) {
  REX_REQUIRE(topology_ != nullptr, "simulator needs a topology");
  const std::size_t n = topology_->node_count();
  REX_REQUIRE(n >= 2, "simulator needs at least two nodes");
  REX_REQUIRE(shards_.size() == n, "one shard per topology node required");
  REX_REQUIRE(setup.model_factory != nullptr, "simulator needs a model factory");
  REX_REQUIRE(setup.platforms >= 1, "at least one platform");

  result_.label = setup.label;
  // Per-edge links: drawn once here (single-threaded, keyed per edge) so
  // every discipline and worker-thread count sees identical values.
  link_model_ = std::make_unique<LinkModel>(
      *topology_, cost_model_.params().wan, cost_model_.params().link_latency_s,
      setup.seed);
  transport_ = std::make_unique<net::Transport>(n);
  pool_ = std::make_unique<ThreadPool>(setup.threads);

  // Platform services: `platforms` machines, nodes assigned round-robin
  // (the paper runs 2 processes per machine on 4 SGX servers). The shared
  // ClusterContext keeps these derivations identical between this
  // single-process simulator and the multi-process socket deployment
  // (DESIGN.md §11).
  cluster_ = std::make_unique<core::ClusterContext>(setup.seed,
                                                    setup.platforms);

  // Byzantine fault kinds need the enclaves to count-and-discard hostile
  // envelopes rather than abort the run (core/config.hpp) — decided before
  // the hosts snapshot rex_.
  if (setup.faults.has(FaultKind::kTamper) ||
      setup.faults.has(FaultKind::kReplay) ||
      setup.faults.has(FaultKind::kDuplicate)) {
    rex_.tolerate_byzantine = true;
  }

  for (core::NodeId id = 0; id < n; ++id) {
    hosts_.emplace_back(rex_, id, cluster_->identity(),
                        cluster_->quoting_enclave(id), cluster_->verifier(),
                        setup.model_factory, cluster_->node_seed(id),
                        *transport_);
  }

  SimEngine::Config engine_config;
  engine_config.mode = setup.engine;
  engine_config.dynamics = setup.dynamics;
  engine_config.seed = setup.seed;
  engine_config.query_load = setup.query_load;
  engine_ = std::make_unique<SimEngine>(rex_, *topology_, hosts_,
                                        *transport_, cost_model_,
                                        *link_model_, *pool_, result_,
                                        engine_config);

  if (setup.faults.enabled()) {
    harness_ = std::make_unique<ScenarioHarness>(
        *engine_, std::move(setup.faults),
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
