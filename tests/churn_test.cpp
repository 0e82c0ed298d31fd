// Churn rejoin protocol tests (DESIGN.md §6): thread-count determinism with
// churn + rejoin enabled (LAN and geo WAN links), golden identity against
// the committed pre-rejoin dumps when churn is off, resync-byte
// conservation, secure-mode re-attestation, and partition tolerance (a
// rejoiner whose neighbors are all down must terminate, not spin into the
// runaway guard).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"

namespace rex::sim {
namespace {

Scenario base_scenario() {
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

Scenario churn_scenario() {
  Scenario s = base_scenario();
  s.rex.algorithm = core::Algorithm::kRmw;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.3;
  s.dynamics.churn_probability = 0.25;
  s.dynamics.churn_downtime_s = 0.001;
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
    EXPECT_DOUBLE_EQ(a.rounds[i].reachable_fraction,
                     b.rounds[i].reachable_fraction)
        << i;
    EXPECT_EQ(a.rounds[i].nodes_reporting, b.rounds[i].nodes_reporting) << i;
  }
}

// ===== Rejoin determinism across worker-thread counts =====

void run_thread_determinism(Scenario scenario) {
  scenario.threads = 1;
  const ExperimentResult reference = run_scenario(scenario);
  ASSERT_FALSE(reference.rounds.empty());
  for (const std::size_t threads : {2ul, 8ul}) {
    Scenario parallel = scenario;
    parallel.threads = threads;
    SCOPED_TRACE(threads);
    expect_identical(reference, run_scenario(parallel));
  }
}

TEST(ChurnRejoin, IdenticalAcross1_2_8Threads) {
  run_thread_determinism(churn_scenario());
}

TEST(ChurnRejoin, WanLinksIdenticalAndPreservePairFifo) {
  // Heterogeneous links: shares of different sizes serialize through the
  // sender's TxQueue uplink and must not overtake each other within a
  // (src, dst) pair — the receive watermark throws on out-of-order epochs,
  // so this run completing at all pins the pair FIFO that release order,
  // the queue and a fixed edge latency give, and the thread sweep pins its
  // determinism.
  Scenario s = churn_scenario();
  s.costs.wan = make_wan_profile("geo");
  s.epochs = 4;
  run_thread_determinism(s);
}

TEST(ChurnRejoin, SecureModeIdenticalAcross1_2_8Threads) {
  Scenario s = churn_scenario();
  s.rex.security = enclave::SecurityMode::kSgxSimulated;
  s.epochs = 6;
  run_thread_determinism(s);
}

TEST(ChurnRejoin, LossFaultsPlusChurnIdenticalAcross1_2_8Threads) {
  // Churn and an adversarial loss window composed (DESIGN.md §8): churn
  // drops and harness drops account through different counters, and both
  // randomness streams run on the serial phase — the combination must stay
  // bit-identical across worker-thread counts.
  Scenario s = churn_scenario();
  s.epochs = 6;
  s.faults.seed = 77;
  s.faults.faults.push_back(
      FaultSpec::loss(SimTime{0.002}, SimTime{0.05}, 0.2));
  run_thread_determinism(s);
}

TEST(ChurnRejoin, LossFaultsPlusChurnDivergingRunFailsTheConvergenceGate) {
  // The same composition with an MF learning rate that blows the RMSE up:
  // the harness's post-heal convergence gate must reject the run.
  Scenario s = churn_scenario();
  s.epochs = 6;
  s.mf_learning_rate = 2.0f;
  s.faults.seed = 77;
  s.faults.faults.push_back(
      FaultSpec::loss(SimTime{0.002}, SimTime{0.05}, 0.2));
  try {
    (void)run_scenario(s);
    ADD_FAILURE() << "a diverging run passed the convergence gate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no convergence after heal"),
              std::string::npos)
        << e.what();
  }
}

// ===== Rejoin semantics =====

TEST(ChurnRejoin, RejoinersResyncBeforeTraining) {
  Scenario s = churn_scenario();
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  sim.run(s.epochs);

  std::uint64_t rejoins = 0, resync_rx = 0, timeouts = 0;
  double latency_sum = 0.0;
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    const SimEngine::NodeStatus& status = sim.engine().node_status(id);
    rejoins += status.rejoins;
    resync_rx += status.resync_bytes;
    timeouts += status.rejoin_timeouts;
    latency_sum += status.rejoin_latency_sum_s;
    EXPECT_GE(status.epochs_done, s.epochs + 1) << id;
  }
  EXPECT_GT(rejoins, 0u);
  // Completed rejoins took simulated time: the resync round-trip ran
  // before the train timer restarted. Total latency 0 across hundreds of
  // rejoins would mean every node skipped the exchange.
  EXPECT_GT(latency_sum, 0.0);
  // Under this mild churn most rejoins find online neighbors and pull
  // state; the resync path must actually have carried bytes.
  EXPECT_GT(resync_rx, 0u);
  // Rejoin latency: every completed rejoin with a resync paid at least one
  // round trip of the (homogeneous) link latency.
  const SimEngine::ResyncTotals& totals = sim.engine().resync_totals();
  EXPECT_GT(totals.rx_bytes, 0u);
  (void)timeouts;
}

TEST(ChurnRejoin, SecureRejoinReattestsAndStaysDecryptable) {
  // SGX mode: a rejoin replaces both sides' sessions (fresh keys) while
  // shares sealed under the old key may still be in flight — the stale-key
  // fallback must keep every delivery decryptable, and the run must end
  // fully attested on every node.
  Scenario s = churn_scenario();
  s.rex.security = enclave::SecurityMode::kSgxSimulated;
  s.epochs = 6;
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  sim.run(s.epochs);

  std::uint64_t rejoins = 0, merged = 0;
  std::size_t attested_pairs = 0, neighbor_pairs = 0;
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    rejoins += sim.engine().node_status(id).rejoins;
    merged += sim.host(id).trusted().resync_models_merged();
    // Every node completed the run (no node wedged mid-rejoin).
    EXPECT_GE(sim.engine().node_status(id).epochs_done, s.epochs + 1) << id;
    for (const core::NodeId peer : sim.topology().neighbors(id)) {
      ++neighbor_pairs;
      if (sim.host(id).trusted().attested_with(peer)) ++attested_pairs;
    }
  }
  EXPECT_GT(rejoins, 0u);
  EXPECT_GT(merged, 0u);
  // Re-attestation works: most pairs end attested. (A handshake still in
  // flight when the run ends — or whose peer churned mid-exchange — may
  // leave a pair unattested; it heals at either side's next rejoin.)
  EXPECT_GT(attested_pairs * 2, neighbor_pairs);
}

// ===== Resync-byte conservation =====

TEST(ChurnRejoin, ResyncBytesConserved) {
  Scenario s = churn_scenario();
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  sim.run(s.epochs);

  const SimEngine::ResyncTotals& totals = sim.engine().resync_totals();
  EXPECT_GT(totals.tx_bytes, 0u);
  // Conservation: every resync byte released onto the wire was received,
  // is still queued, or was dropped at a receiver that churned again.
  EXPECT_EQ(totals.tx_bytes, totals.rx_bytes + totals.in_flight_bytes +
                                 totals.dropped_bytes);
  // The per-node receive counters are exactly the engine's rx total.
  std::uint64_t per_node_rx = 0;
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    per_node_rx += sim.engine().node_status(id).resync_bytes;
  }
  EXPECT_EQ(per_node_rx, totals.rx_bytes);
}

// ===== Partition tolerance =====

TEST(ChurnRejoin, AllNeighborsDownTerminatesWithoutRunawayGuard) {
  // Churn probability 1: every node drops after every epoch, so rejoiners
  // routinely find their entire neighborhood offline. The empty-peer-set
  // rejoin completes immediately and training restarts; the run must meet
  // its epoch targets without tripping the runaway guard.
  Scenario s = churn_scenario();
  s.dynamics.churn_probability = 1.0;
  s.dynamics.churn_downtime_s = 0.0005;
  s.epochs = 5;
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  ASSERT_NO_THROW(sim.run(s.epochs));
  std::uint64_t rejoins = 0;
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    const SimEngine::NodeStatus& status = sim.engine().node_status(id);
    rejoins += status.rejoins;
    EXPECT_GE(status.epochs_done, s.epochs + 1) << id;
  }
  EXPECT_GT(rejoins, 0u);
}

TEST(ChurnRejoin, WatchdogUnsticksARejoinerWhoseNeighborChurned) {
  // Aggressive churn with long-ish downtimes: requests regularly land on
  // peers that just dropped, so some rejoins can only complete through the
  // kRejoinDeadline watchdog. The run must still terminate and catch up.
  Scenario s = churn_scenario();
  s.dynamics.churn_probability = 0.6;
  s.dynamics.churn_downtime_s = 0.003;
  s.dynamics.rejoin_timeout_s = 0.002;
  s.epochs = 6;
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  ASSERT_NO_THROW(sim.run(s.epochs));
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    EXPECT_GE(sim.engine().node_status(id).epochs_done, s.epochs + 1) << id;
  }
}

// ===== Golden identity with churn off =====

/// Parses a write_csv file into header names + rows of cells.
struct Csv {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

Csv read_csv(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  Csv csv;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    if (first) {
      csv.header = std::move(cells);
      first = false;
    } else if (!cells.empty()) {
      csv.rows.push_back(std::move(cells));
    }
  }
  return csv;
}

std::string golden_dir() {
  return (std::filesystem::path(__FILE__).parent_path() / "golden").string();
}

/// Column-matched golden comparison: every column of the committed pre-PR
/// dump must exist in the fresh dump and match cell for cell. Columns the
/// PR added (reachable_fraction) are allowed; renames or value drift fail.
void expect_matches_golden(const ExperimentResult& result,
                           const std::string& golden_name) {
  const std::string fresh_path =
      (std::filesystem::temp_directory_path() / ("rex_" + golden_name))
          .string();
  write_csv(result, fresh_path);
  const Csv golden = read_csv(golden_dir() + "/" + golden_name);
  const Csv fresh = read_csv(fresh_path);
  ASSERT_FALSE(golden.rows.empty());
  ASSERT_EQ(golden.rows.size(), fresh.rows.size());
  for (std::size_t g = 0; g < golden.header.size(); ++g) {
    const auto it = std::find(fresh.header.begin(), fresh.header.end(),
                              golden.header[g]);
    ASSERT_NE(it, fresh.header.end())
        << "column " << golden.header[g] << " disappeared from write_csv";
    const std::size_t f =
        static_cast<std::size_t>(it - fresh.header.begin());
    for (std::size_t row = 0; row < golden.rows.size(); ++row) {
      ASSERT_LT(g, golden.rows[row].size());
      ASSERT_LT(f, fresh.rows[row].size());
      EXPECT_EQ(golden.rows[row][g], fresh.rows[row][f])
          << golden.header[g] << " row " << row;
    }
  }
  std::filesystem::remove(fresh_path);
}

TEST(ChurnOffGolden, BarrierDpsgdBitIdenticalToPrePrDump) {
  const ExperimentResult result = run_scenario(base_scenario());
  expect_matches_golden(result, "churn_off_barrier_dpsgd.csv");
}

TEST(ChurnOffGolden, EventRmwBitIdenticalToPrePrDump) {
  Scenario s = base_scenario();
  s.rex.algorithm = core::Algorithm::kRmw;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.5;
  s.dynamics.straggler_probability = 0.2;
  s.dynamics.straggler_lognormal_sigma = 0.8;
  const ExperimentResult result = run_scenario(s);
  expect_matches_golden(result, "churn_off_event_rmw.csv");
}

TEST(ChurnOffGolden, ExplicitEmptyFaultScheduleKeepsGoldenIdentity) {
  // A default-constructed FaultSchedule means "harness off": no harness is
  // installed at all and both disciplines take the exact pre-harness code
  // paths — the committed pre-PR dumps must stay byte-identical.
  Scenario barrier = base_scenario();
  barrier.faults = FaultSchedule{};
  expect_matches_golden(run_scenario(barrier), "churn_off_barrier_dpsgd.csv");

  Scenario event = base_scenario();
  event.rex.algorithm = core::Algorithm::kRmw;
  event.engine_mode = EngineMode::kEventDriven;
  event.dynamics.speed_lognormal_sigma = 0.5;
  event.dynamics.straggler_probability = 0.2;
  event.dynamics.straggler_lognormal_sigma = 0.8;
  event.faults = FaultSchedule{};
  expect_matches_golden(run_scenario(event), "churn_off_event_rmw.csv");
}

TEST(ChurnOffGolden, ReachableFractionIsOneWithoutChurn) {
  Scenario s = base_scenario();
  s.engine_mode = EngineMode::kEventDriven;
  const ExperimentResult result = run_scenario(s);
  ASSERT_FALSE(result.rounds.empty());
  for (const RoundRecord& r : result.rounds) {
    EXPECT_DOUBLE_EQ(r.reachable_fraction, 1.0);
  }
}

}  // namespace
}  // namespace rex::sim
