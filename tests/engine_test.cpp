// Event-engine tests: determinism across thread counts for both scheduling
// disciplines, barrier/event learning equivalence, heterogeneity (per-node
// epoch counts diverge — the barrier is gone), the RMW period timer, churn,
// and the round-record min/max RMSE guarantees.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"

namespace rex::sim {
namespace {

Scenario engine_scenario() {
  Scenario s;
  s.dataset.n_users = 16;
  s.dataset.n_items = 150;
  s.dataset.n_ratings = 900;
  s.dataset.seed = 3;
  s.nodes = 0;  // one node per user
  s.topology = TopologyKind::kSmallWorld;
  s.model = ModelKind::kMf;
  s.mf_sgd_steps_per_epoch = 40;
  s.rex.sharing = core::SharingMode::kRawData;
  s.rex.algorithm = core::Algorithm::kDpsgd;
  s.rex.data_points_per_epoch = 20;
  s.epochs = 10;
  s.seed = 9;
  return s;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].mean_rmse, b.rounds[i].mean_rmse) << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].min_rmse, b.rounds[i].min_rmse) << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].max_rmse, b.rounds[i].max_rmse) << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].cumulative_time.seconds,
                     b.rounds[i].cumulative_time.seconds)
        << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].mean_bytes_in_out,
                     b.rounds[i].mean_bytes_in_out)
        << i;
    EXPECT_EQ(a.rounds[i].nodes_reporting, b.rounds[i].nodes_reporting) << i;
  }
}


TEST(EngineDeterminism, BarrierDpsgdIdenticalAcrossThreadCounts) {
  Scenario serial = engine_scenario();
  serial.threads = 1;
  Scenario parallel = engine_scenario();
  parallel.threads = 4;
  expect_identical(run_scenario(serial), run_scenario(parallel));
}

TEST(EngineDeterminism, EventDpsgdIdenticalAcrossThreadCounts) {
  Scenario serial = engine_scenario();
  serial.engine_mode = EngineMode::kEventDriven;
  serial.threads = 1;
  Scenario parallel = serial;
  parallel.threads = 4;
  expect_identical(run_scenario(serial), run_scenario(parallel));
}

TEST(EngineDeterminism, EventRmwWithDynamicsIdenticalAcrossThreadCounts) {
  Scenario serial = engine_scenario();
  serial.rex.algorithm = core::Algorithm::kRmw;
  serial.engine_mode = EngineMode::kEventDriven;
  serial.dynamics.speed_lognormal_sigma = 0.5;
  serial.dynamics.straggler_probability = 0.2;
  serial.dynamics.straggler_lognormal_sigma = 0.8;
  serial.threads = 1;
  Scenario parallel = serial;
  parallel.threads = 4;
  expect_identical(run_scenario(serial), run_scenario(parallel));
}

/// Secure-mode twin of the thread-count cells: attestation (run on the
/// pool) and the sealed share path must be as deterministic as native
/// runs, down to per-node traffic and the attestation step count.
void expect_secure_identical_across_thread_counts(Scenario scenario) {
  scenario.rex.security = enclave::SecurityMode::kSgxSimulated;
  scenario.threads = 1;
  ScenarioInputs serial_inputs;
  Simulator serial = make_scenario_simulator(scenario, serial_inputs);
  serial.run(scenario.epochs);
  scenario.threads = 4;
  ScenarioInputs parallel_inputs;
  Simulator parallel = make_scenario_simulator(scenario, parallel_inputs);
  parallel.run(scenario.epochs);

  expect_identical(serial.result(), parallel.result());
  EXPECT_GT(serial.attestation_rounds(), 0u);
  EXPECT_EQ(serial.attestation_rounds(), parallel.attestation_rounds());
  ASSERT_EQ(serial.node_count(), parallel.node_count());
  for (core::NodeId id = 0; id < serial.node_count(); ++id) {
    EXPECT_TRUE(serial.host(id).trusted().fully_attested()) << id;
    EXPECT_TRUE(parallel.host(id).trusted().fully_attested()) << id;
    const net::TrafficStats& a = serial.transport().stats(id);
    const net::TrafficStats& b = parallel.transport().stats(id);
    EXPECT_EQ(a.messages_sent, b.messages_sent) << id;
    EXPECT_EQ(a.messages_received, b.messages_received) << id;
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << id;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << id;
  }
}

TEST(EngineDeterminism, SecureBarrierDpsgdIdenticalAcrossThreadCounts) {
  expect_secure_identical_across_thread_counts(engine_scenario());
}

TEST(EngineDeterminism, SecureEventRmwWithDynamicsIdenticalAcrossThreadCounts) {
  Scenario s = engine_scenario();
  s.rex.algorithm = core::Algorithm::kRmw;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.5;
  s.dynamics.straggler_probability = 0.2;
  s.dynamics.straggler_lognormal_sigma = 0.8;
  expect_secure_identical_across_thread_counts(s);
}

TEST(EngineDeterminism, EventModeRepeatable) {
  Scenario s = engine_scenario();
  s.rex.algorithm = core::Algorithm::kRmw;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.5;
  expect_identical(run_scenario(s), run_scenario(s));
}

TEST(EngineEquivalence, EventDpsgdMatchesBarrierLearning) {
  // Homogeneous event-driven D-PSGD performs the same per-epoch math as the
  // barrier loop — every round consumes one payload per neighbor with the
  // same RNG streams. Only the aggregation (summation) order differs, so
  // the per-epoch means agree to floating-point noise.
  const Scenario barrier = engine_scenario();
  Scenario event = engine_scenario();
  event.engine_mode = EngineMode::kEventDriven;
  const ExperimentResult a = run_scenario(barrier);
  const ExperimentResult b = run_scenario(event);
  // Same epoch budget: barrier records epoch 0 + `epochs` rounds; the event
  // engine targets the same count (fast nodes may record a few beyond it).
  ASSERT_GE(b.rounds.size(), a.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_NEAR(a.rounds[i].mean_rmse, b.rounds[i].mean_rmse, 1e-12) << i;
    EXPECT_EQ(b.rounds[i].nodes_reporting, 16u) << i;  // no node skipped
  }
}

TEST(EngineHeterogeneity, RmwEpochCountsDivergeAcrossNodes) {
  // The acceptance shape of the refactor: with per-node speed factors, fast
  // nodes complete more epochs — impossible under a global barrier.
  Scenario s = engine_scenario();
  s.rex.algorithm = core::Algorithm::kRmw;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.5;
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  sim.run(s.epochs);

  std::uint64_t min_epochs = ~std::uint64_t{0}, max_epochs = 0;
  std::uint64_t min_events = ~std::uint64_t{0}, max_events = 0;
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    const SimEngine::NodeStatus& status = sim.engine().node_status(id);
    min_epochs = std::min(min_epochs, status.epochs_done);
    max_epochs = std::max(max_epochs, status.epochs_done);
    min_events = std::min(min_events, status.events_processed);
    max_events = std::max(max_events, status.events_processed);
  }
  EXPECT_GE(min_epochs, s.epochs + 1);  // everyone reached epoch 0 + epochs
  EXPECT_GT(max_epochs, min_epochs);
  EXPECT_GT(max_events, min_events);
}

TEST(EngineHeterogeneity, BarrierRoundTimeTracksSlowestStraggler) {
  // The barrier engine honors the same straggler draws, so a straggling
  // run's rounds are slower than the homogeneous run's.
  const Scenario base = engine_scenario();
  Scenario straggling = engine_scenario();
  straggling.dynamics.straggler_probability = 0.5;
  straggling.dynamics.straggler_lognormal_sigma = 1.0;
  const ExperimentResult fast = run_scenario(base);
  const ExperimentResult slow = run_scenario(straggling);
  ASSERT_EQ(fast.rounds.size(), slow.rounds.size());
  EXPECT_GT(slow.total_time().seconds, fast.total_time().seconds);
  // Straggler jitter changes costs, never the math.
  for (std::size_t i = 0; i < fast.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(fast.rounds[i].mean_rmse, slow.rounds[i].mean_rmse);
  }
}

TEST(EngineTimer, RmwPeriodPacesEpochs) {
  Scenario s = engine_scenario();
  s.rex.algorithm = core::Algorithm::kRmw;
  s.rex.rmw_period_s = 0.01;  // far above the per-epoch compute time
  s.engine_mode = EngineMode::kEventDriven;
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  sim.run(s.epochs);
  // Homogeneous nodes on a common period finish together, one epoch per
  // period: epoch 0 at t=0 plus `epochs` timer firings.
  EXPECT_GE(sim.engine().now().seconds,
            static_cast<double>(s.epochs) * s.rex.rmw_period_s);
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    EXPECT_EQ(sim.engine().node_status(id).epochs_done, s.epochs + 1) << id;
  }
}

TEST(EngineTimer, ChurnRecoveryDoesNotDuplicateTheTimerChain) {
  // A node that churns with its period timer still queued must resume on
  // that timer, not gain a second chain: the epoch rate stays bounded by
  // one per period, so the clock advances at least `epochs` periods.
  Scenario s = engine_scenario();
  s.rex.algorithm = core::Algorithm::kRmw;
  s.rex.rmw_period_s = 0.01;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.churn_probability = 0.4;
  s.dynamics.churn_downtime_s = 0.001;  // far shorter than the period
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  sim.run(s.epochs);
  EXPECT_GE(sim.engine().now().seconds,
            static_cast<double>(s.epochs) * s.rex.rmw_period_s);
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    EXPECT_GE(sim.engine().node_status(id).epochs_done, s.epochs + 1) << id;
  }
}

TEST(EngineChurn, OfflineNodesLoseDeliveriesAndRecover) {
  Scenario s = engine_scenario();
  s.rex.algorithm = core::Algorithm::kRmw;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.churn_probability = 0.3;
  s.dynamics.churn_downtime_s = 0.001;
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  sim.run(s.epochs);
  std::uint64_t lost = 0, rejoins = 0;
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    const SimEngine::NodeStatus& status = sim.engine().node_status(id);
    // A share towards an offline node is either dropped in flight (sent
    // before the outage) or elided at the sender (the default offline
    // policy); both are losses the run must have seen under this churn.
    lost += status.deliveries_dropped + status.deliveries_elided;
    rejoins += status.rejoins;
    // Recovered, rejoined, and caught up to the full target.
    EXPECT_GE(status.epochs_done, s.epochs + 1) << id;
  }
  EXPECT_GT(lost, 0u);
  EXPECT_GT(rejoins, 0u);
}

TEST(EngineRecords, MinRmseNeverReportsSentinel) {
  const ExperimentResult result = run_scenario(engine_scenario());
  ASSERT_FALSE(result.rounds.empty());
  for (const RoundRecord& r : result.rounds) {
    EXPECT_TRUE(std::isfinite(r.min_rmse));
    EXPECT_LT(r.min_rmse, 1e100);
    EXPECT_LE(r.min_rmse, r.mean_rmse);
    EXPECT_LE(r.mean_rmse, r.max_rmse);
  }
}

TEST(EngineRecords, AsyncRecordsCarryContributorCounts) {
  Scenario s = engine_scenario();
  s.rex.algorithm = core::Algorithm::kRmw;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.5;
  const ExperimentResult result = run_scenario(s);
  ASSERT_FALSE(result.rounds.empty());
  // Early epochs: everyone reports. Late epochs: only the fast nodes.
  EXPECT_EQ(result.rounds.front().nodes_reporting, 16u);
  EXPECT_LT(result.rounds.back().nodes_reporting, 16u);
  double previous = -1.0;
  for (const RoundRecord& r : result.rounds) {
    EXPECT_GE(r.nodes_reporting, 1u);
    EXPECT_TRUE(std::isfinite(r.mean_rmse));
    EXPECT_LE(r.min_rmse, r.mean_rmse);
    EXPECT_LE(r.mean_rmse, r.max_rmse);
    // A slow node's epoch e may outlast fast nodes' epoch e+1; the records
    // still present a monotone time axis (running completion max).
    EXPECT_GE(r.cumulative_time.seconds, previous);
    previous = r.cumulative_time.seconds;
  }
}

}  // namespace
}  // namespace rex::sim
