// LinkModel tests: per-edge draw determinism (same seed ⇒ identical values
// across worker-thread counts and across the two scheduling disciplines),
// TxQueue serialization (k simultaneous shares pay the sum of their tx
// times, not the max), the homogeneous-default bit-identity guarantee, WAN
// end-to-end determinism, and the no-epoch-folding pins backing the ROADMAP
// note on per-epoch metrics records.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/experiment.hpp"
#include "sim/link_model.hpp"
#include "sim/simulator.hpp"

namespace rex::sim {
namespace {

Scenario wan_scenario() {
  Scenario s;
  s.dataset.n_users = 48;
  s.dataset.n_items = 120;
  s.dataset.n_ratings = 1200;
  s.dataset.seed = 3;
  s.nodes = 0;  // one node per user
  s.topology = TopologyKind::kSmallWorld;
  s.model = ModelKind::kMf;
  s.mf_embedding_dim = 4;
  s.mf_sgd_steps_per_epoch = 20;
  s.rex.sharing = core::SharingMode::kRawData;
  s.rex.algorithm = core::Algorithm::kDpsgd;
  s.rex.data_points_per_epoch = 10;
  s.epochs = 8;
  s.seed = 17;
  s.costs.wan = make_wan_profile("wan");
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

void expect_same_links(const LinkModel& a, const LinkModel& b) {
  ASSERT_TRUE(a.heterogeneous());
  ASSERT_TRUE(b.heterogeneous());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.edge(e), b.edge(e)) << e;
    EXPECT_EQ(a.edge_latency_s(e), b.edge_latency_s(e)) << e;
    EXPECT_EQ(a.edge_bandwidth_bytes_per_s(e),
              b.edge_bandwidth_bytes_per_s(e))
        << e;
  }
}

TEST(LinkModel, SameSeedIdenticalDrawsAcrossThreadCounts) {
  // The draws are keyed per edge off the experiment seed, so worker-thread
  // count (and any other construction context) must not shift them.
  Scenario base = wan_scenario();
  base.threads = 1;
  ScenarioInputs inputs1;
  Simulator sim1 = make_scenario_simulator(base, inputs1);
  for (const std::size_t threads : {2ul, 8ul}) {
    Scenario s = wan_scenario();
    s.threads = threads;
    ScenarioInputs inputs;
    Simulator sim = make_scenario_simulator(s, inputs);
    expect_same_links(sim1.link_model(), sim.link_model());
  }
}

TEST(LinkModel, SharedEdgesIdenticalAcrossDisciplines) {
  Scenario barrier = wan_scenario();
  barrier.engine_mode = EngineMode::kBarrier;
  Scenario event = wan_scenario();
  event.engine_mode = EngineMode::kEventDriven;
  ScenarioInputs bi, ei;
  Simulator bs = make_scenario_simulator(barrier, bi);
  Simulator es = make_scenario_simulator(event, ei);
  expect_same_links(bs.link_model(), es.link_model());
}

TEST(LinkModel, SymmetricAndRegionConsistent) {
  Scenario s = wan_scenario();
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  const LinkModel& links = sim.link_model();
  const graph::Graph& g = sim.topology();
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_LT(links.region(u), links.params().regions);
    for (const graph::NodeId v : g.neighbors(u)) {
      EXPECT_EQ(links.latency(u, v).seconds, links.latency(v, u).seconds);
      // One edge id per pair: both directions share its bandwidth.
      EXPECT_EQ(links.edge_id(u, v), links.edge_id(v, u));
      EXPECT_GT(links.latency(u, v).seconds, 0.0);
      EXPECT_GE(links.edge_bandwidth_bytes_per_s(links.edge_id(u, v)),
                links.params().min_bandwidth_bytes_per_s);
    }
  }
  // The barrier charges the slowest link per round.
  EXPECT_EQ(links.round_latency().seconds, links.latency_stats().max);
}

TEST(TxQueue, SimultaneousSharesSerializeToSumNotMax) {
  // k shares released at the same instant occupy the wire back to back:
  // the last one completes after the *sum* of the tx times. Paying them in
  // parallel (the pre-LinkModel behavior) would complete at the max.
  TxQueue queue;
  const SimTime release{1.0};
  const double tx[] = {0.25, 0.5, 0.125};
  double sum = 0.0, max = 0.0;
  SimTime last;
  for (const double t : tx) {
    last = queue.transmit(release, SimTime{t});
    sum += t;
    max = std::max(max, t);
    EXPECT_DOUBLE_EQ(last.seconds, release.seconds + sum);
  }
  EXPECT_DOUBLE_EQ(last.seconds, release.seconds + sum);
  EXPECT_GT(last.seconds, release.seconds + max);
  // A later release on a free wire starts at the release, not at free_at.
  const SimTime done = queue.transmit(SimTime{10.0}, SimTime{0.5});
  EXPECT_DOUBLE_EQ(done.seconds, 10.5);
}

TEST(LinkModel, MatchedWanProfileReproducesHomogeneousRunExactly) {
  // A degenerate enabled profile (one region, zero sigmas, base latency ==
  // the global default, infinite bandwidth so per-edge transmission — and
  // with it the sender's queueing — is exactly zero) must reproduce the
  // homogeneous run bit for bit: the enabled code path may not change the
  // arithmetic.
  Scenario plain = wan_scenario();
  plain.costs.wan = LinkParams{};
  plain.engine_mode = EngineMode::kEventDriven;

  Scenario matched = plain;
  matched.costs.wan.enabled = true;
  matched.costs.wan.regions = 1;
  matched.costs.wan.intra_region_latency_s = plain.costs.link_latency_s;
  matched.costs.wan.inter_region_step_s = 0.0;
  matched.costs.wan.latency_lognormal_sigma = 0.0;
  matched.costs.wan.edge_bandwidth_bytes_per_s =
      std::numeric_limits<double>::infinity();
  matched.costs.wan.bandwidth_lognormal_sigma = 0.0;
  matched.costs.wan.min_bandwidth_bytes_per_s = 1.0;

  expect_identical(run_scenario(plain), run_scenario(matched));

  // Same guarantee for the barrier discipline (round latency = the max edge
  // latency = the homogeneous constant here).
  plain.engine_mode = EngineMode::kBarrier;
  matched.engine_mode = EngineMode::kBarrier;
  expect_identical(run_scenario(plain), run_scenario(matched));
}

TEST(LinkModel, WanEventRunIdenticalAcrossThreadCounts) {
  Scenario serial = wan_scenario();
  serial.engine_mode = EngineMode::kEventDriven;
  serial.dynamics.speed_lognormal_sigma = 0.25;
  serial.threads = 1;
  const ExperimentResult reference = run_scenario(serial);
  for (const std::size_t threads : {2ul, 8ul}) {
    Scenario parallel = serial;
    parallel.threads = threads;
    expect_identical(reference, run_scenario(parallel));
  }
}

TEST(LinkModel, WanQueueingSlowsCompletionAndRecordsEdgeTraffic) {
  Scenario wan = wan_scenario();
  wan.engine_mode = EngineMode::kEventDriven;
  ScenarioInputs wi;
  Simulator wan_sim = make_scenario_simulator(wan, wi);
  wan_sim.run(wan.epochs);

  Scenario lan = wan_scenario();
  lan.costs.wan = LinkParams{};
  lan.engine_mode = EngineMode::kEventDriven;
  ScenarioInputs li;
  Simulator lan_sim = make_scenario_simulator(lan, li);
  lan_sim.run(lan.epochs);

  // WAN edges (queued on each sender's uplink) are orders of magnitude
  // slower than the homogeneous LAN.
  EXPECT_GT(wan_sim.engine().now().seconds, lan_sim.engine().now().seconds);

  // Every delivery was accounted on some edge, with positive delays.
  std::uint64_t deliveries = 0;
  for (const SimEngine::EdgeTraffic& edge : wan_sim.engine().edge_traffic()) {
    deliveries += edge.deliveries;
    if (edge.deliveries > 0) {
      EXPECT_GT(edge.bytes, 0u);
      EXPECT_GT(edge.delay_sum_s, 0.0);
    }
  }
  EXPECT_GT(deliveries, 0u);
}

TEST(LinkModel, MakeWanProfileRejectsUnknownNames) {
  EXPECT_THROW((void)make_wan_profile("dialup"), Error);
  for (const std::string name : {"lan", "wan", "geo"}) {
    EXPECT_TRUE(make_wan_profile(name).enabled) << name;
  }
}

// ===== Epoch-record folding pins (ROADMAP "per-epoch records") =====
//
// NodeStatus::epochs_folded counts protocol runs whose metrics record was
// folded into a same-timestamp successor. The engine's in-batch kTrain
// guard plus the share→deliver chain (round r+1 deliveries are scheduled at
// least one batch after round r's epoch) make folding unreachable on
// today's event vocabulary; these tests pin that — if a future event kind
// lets a host run two epochs in one math phase, they fail and the split
// becomes due (see ROADMAP).

std::uint64_t total_folded(const Simulator& sim) {
  std::uint64_t folded = 0;
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    folded += sim.engine().node_status(id).epochs_folded;
  }
  return folded;
}

TEST(EpochRecords, WanQueueingDoesNotFoldEpochRecords) {
  // Queued transmissions delay shares past epoch boundaries; every epoch
  // must still produce its own record (contributor conservation: the
  // records' nodes_reporting sum equals the nodes' epochs_done sum).
  Scenario s = wan_scenario();
  s.engine_mode = EngineMode::kEventDriven;
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  sim.run(s.epochs);
  EXPECT_EQ(total_folded(sim), 0u);
  std::uint64_t epochs_done = 0;
  for (core::NodeId id = 0; id < sim.node_count(); ++id) {
    epochs_done += sim.engine().node_status(id).epochs_done;
  }
  std::uint64_t contributors = 0;
  for (const RoundRecord& r : sim.result().rounds) {
    contributors += r.nodes_reporting;
  }
  EXPECT_EQ(contributors, epochs_done);
}

TEST(EpochRecords, ExactTieScheduleDoesNotFoldEpochRecords) {
  // The adversarial schedule for folding: all cost parameters zero, so
  // every event in the run lands at t = 0 and every batch is a maximal tie.
  Scenario s = wan_scenario();
  s.costs.wan = LinkParams{};
  s.costs.flop_ns = 0.0;
  s.costs.sgd_sample_overhead_ns = 0.0;
  s.costs.prediction_overhead_ns = 0.0;
  s.costs.merge_param_ns = 0.0;
  s.costs.store_append_ns = 0.0;
  s.costs.serialize_byte_ns = 0.0;
  s.costs.deserialize_byte_ns = 0.0;
  s.costs.link_latency_s = 0.0;
  s.costs.bandwidth_bytes_per_s = 1e30;
  s.engine_mode = EngineMode::kEventDriven;
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  sim.run(s.epochs);
  EXPECT_EQ(total_folded(sim), 0u);
  for (const RoundRecord& r : sim.result().rounds) {
    EXPECT_EQ(r.nodes_reporting, sim.node_count()) << r.epoch;
  }
}

}  // namespace
}  // namespace rex::sim
