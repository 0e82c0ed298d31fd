// Simulator: the assembly facade over the event-driven SimEngine.
//
// Owns the hosts, transport, platform services (SGX mode), thread pool and
// result sink for one decentralized run, and delegates all scheduling to
// sim::SimEngine. The default barrier mode reproduces the paper's
// synchronized rounds (§III-D) with metrics bit-identical to the historical
// fixed loop; EngineMode::kEventDriven plus NodeDynamics unlock per-node
// speed heterogeneity, log-normal stragglers and churn. All timing is
// simulated through the CostModel, so results are deterministic for a given
// seed regardless of worker-thread count.
#pragma once

#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "core/config.hpp"
#include "core/untrusted_host.hpp"
#include "data/partition.hpp"
#include "graph/graph.hpp"
#include "net/transport.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/link_model.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"
#include "support/arena.hpp"
#include "support/thread_pool.hpp"

namespace rex::sim {

struct Scenario;        // sim/experiment.hpp, which includes this header
struct ScenarioInputs;

class Simulator {
 public:
  /// Assembles the run `scenario` describes over its prepared `inputs`
  /// (sim::prepare_scenario), which must outlive the simulator: it borrows
  /// the topology and takes the shards. Byzantine fault kinds in
  /// Scenario::faults flip RexConfig::tolerate_byzantine, so the enclaves
  /// count-and-discard hostile envelopes instead of aborting the run.
  Simulator(const Scenario& scenario, ScenarioInputs& inputs);

  // The engine holds references into this object; prvalue returns still
  // work (guaranteed elision), but moving a constructed Simulator would
  // dangle them.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs the mutual attestation phase (no-op in native mode). Throws if
  /// any pair fails to attest within a bounded number of steps.
  void run_attestation();

  /// ecall_init on every node (epoch 0: first local training + share).
  void initialize_nodes();

  /// Barrier mode: `epochs` further synchronized rounds. Event mode: pumps
  /// the engine until every node completed `epochs` further epochs.
  void run_epochs(std::size_t epochs);

  /// Convenience: attestation + init + epochs.
  void run(std::size_t epochs);

  [[nodiscard]] const ExperimentResult& result() const { return result_; }
  [[nodiscard]] std::size_t node_count() const { return hosts_.size(); }
  [[nodiscard]] core::UntrustedHost& host(core::NodeId id) {
    return hosts_.at(id);
  }
  [[nodiscard]] net::Transport& transport() { return *transport_; }
  [[nodiscard]] const graph::Graph& topology() const { return *topology_; }
  [[nodiscard]] SimEngine& engine() { return *engine_; }
  [[nodiscard]] const SimEngine& engine() const { return *engine_; }
  /// The per-edge link model (homogeneous unless Scenario::costs.wan.enabled).
  [[nodiscard]] const LinkModel& link_model() const { return *link_model_; }
  /// The adversarial harness, or nullptr when Scenario::faults was empty.
  [[nodiscard]] const ScenarioHarness* harness() const {
    return harness_.get();
  }

  /// Attestation delivery steps needed (0 for native runs).
  [[nodiscard]] std::size_t attestation_rounds() const {
    return engine_->attestation_rounds();
  }

 private:
  const graph::Graph* topology_;
  core::RexConfig rex_;
  CostModel cost_model_;
  std::unique_ptr<LinkModel> link_model_;  // outlives the engine
  std::unique_ptr<net::Transport> transport_;
  /// Node arena (DESIGN.md §10): hosts — and with them the runtimes and
  /// trusted nodes they embed by value — live index-addressed in large
  /// contiguous chunks instead of one heap object per node.
  ObjectArena<core::UntrustedHost> hosts_;
  std::vector<data::NodeShard> shards_;  // consumed by initialize_nodes()
  std::unique_ptr<ThreadPool> pool_;

  /// Platform services + per-node seed derivation, shared bit-for-bit with
  /// the multi-process socket deployment (core/cluster.hpp).
  std::unique_ptr<core::ClusterContext> cluster_;

  ExperimentResult result_;
  std::unique_ptr<SimEngine> engine_;  // after everything it borrows
  /// Installed into the engine when Scenario::faults is non-empty; finalize()
  /// runs its end-of-run invariants at the end of run().
  std::unique_ptr<ScenarioHarness> harness_;
};

}  // namespace rex::sim
