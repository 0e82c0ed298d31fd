// Scale determinism: the 10k-node profile of `bench_async_stragglers
// --paper-scale`, run across worker-thread counts in both disciplines —
// the calendar queue, slot pools and recycled batch containers must not
// leak any thread-count dependence into the metrics.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/simulator.hpp"

namespace rex::sim {
namespace {

constexpr std::size_t kNodes = 10000;

Scenario scale_scenario(EngineMode mode, std::size_t nodes = kNodes) {
  Scenario s;
  s.dataset.n_users = nodes;
  s.dataset.n_items = 60;
  s.dataset.n_ratings = nodes * 6;
  s.dataset.min_ratings_per_user = 4;
  s.dataset.seed = 21 ^ 0xDA7A;
  s.nodes = 0;  // one node per user
  s.topology = TopologyKind::kSmallWorld;
  s.model = ModelKind::kMf;
  s.mf_embedding_dim = 2;
  s.mf_sgd_steps_per_epoch = 2;
  s.rex.algorithm = core::Algorithm::kDpsgd;
  s.rex.sharing = core::SharingMode::kRawData;
  s.rex.data_points_per_epoch = 2;
  s.epochs = 2;
  s.seed = 21;
  s.engine_mode = mode;
  if (mode == EngineMode::kEventDriven) {
    s.dynamics.speed_lognormal_sigma = 0.25;
    s.dynamics.straggler_probability = 0.3;
    s.dynamics.straggler_lognormal_sigma = 1.0;
  }
  return s;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b,
                      std::size_t threads) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << threads << " threads";
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].mean_rmse, b.rounds[i].mean_rmse)
        << threads << " threads, epoch " << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].min_rmse, b.rounds[i].min_rmse) << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].max_rmse, b.rounds[i].max_rmse) << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].cumulative_time.seconds,
                     b.rounds[i].cumulative_time.seconds)
        << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].mean_bytes_in_out,
                     b.rounds[i].mean_bytes_in_out)
        << i;
    EXPECT_DOUBLE_EQ(a.rounds[i].mean_memory_bytes,
                     b.rounds[i].mean_memory_bytes)
        << i;
    EXPECT_EQ(a.rounds[i].nodes_reporting, b.rounds[i].nodes_reporting) << i;
  }
}

void run_discipline(Scenario base, std::size_t nodes = kNodes) {
  base.threads = 1;
  const ExperimentResult reference = run_scenario(base);
  ASSERT_FALSE(reference.rounds.empty());
  EXPECT_EQ(reference.rounds.front().nodes_reporting, nodes);
  for (const std::size_t threads : {2ul, 8ul}) {
    Scenario parallel = base;
    parallel.threads = threads;
    expect_identical(reference, run_scenario(parallel), threads);
  }
}

TEST(ScaleDeterminism, Barrier10kIdenticalAcross1_2_8Threads) {
  run_discipline(scale_scenario(EngineMode::kBarrier));
}

TEST(ScaleDeterminism, EventDriven10kIdenticalAcross1_2_8Threads) {
  run_discipline(scale_scenario(EngineMode::kEventDriven));
}

// The mega profile (DESIGN.md §10): 100k one-user nodes — MF user rows
// materialized on demand (users outnumber items), arena-packed hosts and
// the sharded calendar queue (100k nodes is past the
// 16384-nodes-per-shard threshold, so unlike the 10k cells these run with a
// genuinely sharded queue). One epoch: the coverage target is bit-identity
// of every metric across worker-thread counts at mega scale, not
// convergence.
constexpr std::size_t kMegaNodes = 100000;

Scenario mega_scenario(EngineMode mode) {
  Scenario s = scale_scenario(mode, kMegaNodes);
  s.dataset.n_ratings = kMegaNodes * 5;
  s.dataset.n_items = 50;
  s.epochs = 1;
  return s;
}

TEST(ScaleDeterminism, Barrier100kLeanIdenticalAcross1_2_8Threads) {
  run_discipline(mega_scenario(EngineMode::kBarrier), kMegaNodes);
}

TEST(ScaleDeterminism, EventDriven100kLeanIdenticalAcross1_2_8Threads) {
  run_discipline(mega_scenario(EngineMode::kEventDriven), kMegaNodes);
}

// Compressed wire shares must not perturb thread determinism: the codec's
// scratch buffers and the BufferPool recycling of encoded payloads are the
// new thread-adjacent state this PR introduces. Smaller node count — the
// coverage target is codec-vs-pool interaction, not queue capacity.
constexpr std::size_t kCompressedNodes = 2000;

TEST(ScaleDeterminism, CompressedRawBarrierIdenticalAcross1_2_8Threads) {
  Scenario s = scale_scenario(EngineMode::kBarrier, kCompressedNodes);
  s.rex.compress_raw_data = true;
  run_discipline(s, kCompressedNodes);
}

TEST(ScaleDeterminism, CompressedRawEventDrivenIdenticalAcross1_2_8Threads) {
  Scenario s = scale_scenario(EngineMode::kEventDriven, kCompressedNodes);
  s.rex.compress_raw_data = true;
  run_discipline(s, kCompressedNodes);
}

TEST(ScaleDeterminism, QuantizedModelEventDrivenIdenticalAcross1_2_8Threads) {
  Scenario s = scale_scenario(EngineMode::kEventDriven, kCompressedNodes);
  s.rex.sharing = core::SharingMode::kModel;
  s.rex.quantize_model_shares = true;
  run_discipline(s, kCompressedNodes);
}

// Serving at scale (DESIGN.md §9): the open-loop query load adds per-node
// RNG streams, slot-pooled query events and streaming percentile sinks on
// top of training; none of it may leak thread-count dependence into either
// the learning metrics or the serving counters, in either discipline.
void run_serving_discipline(Scenario base, std::size_t nodes) {
  ExperimentResult reference;
  SimEngine::QueryTotals reference_totals{};
  double reference_latency_sum = 0.0, reference_staleness_sum = 0.0;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    Scenario run = base;
    run.threads = threads;
    ScenarioInputs inputs;
    Simulator simulator = make_scenario_simulator(run, inputs);
    simulator.run(run.epochs);
    const SimEngine& engine = simulator.engine();
    const SimEngine::QueryTotals totals = engine.query_totals();
    EXPECT_GT(totals.issued, 0u) << threads;
    EXPECT_EQ(totals.issued, totals.served + totals.dropped_offline)
        << threads;
    if (threads == 1) {
      reference = simulator.result();
      reference_totals = totals;
      reference_latency_sum = engine.query_latency().sum();
      reference_staleness_sum = engine.query_staleness().sum();
      EXPECT_EQ(reference.rounds.front().nodes_reporting, nodes);
    } else {
      expect_identical(reference, simulator.result(), threads);
      EXPECT_EQ(totals.issued, reference_totals.issued) << threads;
      EXPECT_EQ(totals.served, reference_totals.served) << threads;
      EXPECT_EQ(totals.stale, reference_totals.stale) << threads;
      EXPECT_EQ(totals.dropped_offline, reference_totals.dropped_offline)
          << threads;
      EXPECT_DOUBLE_EQ(engine.query_latency().sum(), reference_latency_sum)
          << threads;
      EXPECT_DOUBLE_EQ(engine.query_staleness().sum(),
                       reference_staleness_sum)
          << threads;
    }
  }
}

QueryLoadConfig scale_query_load() {
  QueryLoadConfig load;
  load.rate_hz = 5000.0;  // aggregate over all nodes
  load.top_k = 5;
  load.zipf_s = 0.9;
  load.diurnal_amplitude = 0.5;
  load.diurnal_period_s = 0.05;
  load.stale_threshold_s = 0.01;
  return load;
}

TEST(ScaleDeterminism, ServingBarrierIdenticalAcross1_2_8Threads) {
  Scenario s = scale_scenario(EngineMode::kBarrier, kCompressedNodes);
  s.query_load = scale_query_load();
  run_serving_discipline(s, kCompressedNodes);
}

TEST(ScaleDeterminism, ServingEventDrivenIdenticalAcross1_2_8Threads) {
  // Standard event-scale dynamics (stragglers, no churn): hundreds of
  // churning nodes exceed the engine's runaway budget regardless of the
  // query load, so churn + queries determinism is pinned at small scale in
  // serving_test.cpp while this cell covers slot-pool growth and per-node
  // query RNG streams under 2000 straggling nodes.
  Scenario s = scale_scenario(EngineMode::kEventDriven, kCompressedNodes);
  s.query_load = scale_query_load();
  run_serving_discipline(s, kCompressedNodes);
}

// Adversarial harness at scale (DESIGN.md §8): loss + duplication over 2000
// event-driven RMW nodes (RMW keeps training through loss; a D-PSGD
// pipeline would stall waiting for lost shares). The harness hooks run on
// the serial phase only, so the schedule-seeded Rng and the periodic
// invariant sweeps must not leak any thread-count dependence into the
// metrics.
TEST(ScaleDeterminism, AdversarialEventDrivenIdenticalAcross1_2_8Threads) {
  Scenario s = scale_scenario(EngineMode::kEventDriven, kCompressedNodes);
  s.rex.algorithm = core::Algorithm::kRmw;
  Scenario probe = s;
  probe.threads = 1;
  const double t_end = run_scenario(probe).total_time().seconds;
  ASSERT_GT(t_end, 0.0);
  s.faults.seed = 23;
  s.faults.check_interval_s = t_end / 5.0;
  // A 2-epoch scale cell is a determinism probe, not a convergence cell —
  // its RMSE trajectory is not required to improve at this horizon.
  s.faults.require_convergence = false;
  s.faults.faults.push_back(
      FaultSpec::loss(SimTime{0.1 * t_end}, SimTime{0.5 * t_end}, 0.10));
  s.faults.faults.push_back(FaultSpec::duplicate(
      SimTime{0.1 * t_end}, SimTime{0.5 * t_end}, 0.20, /*node_fraction=*/0.25));
  run_discipline(s, kCompressedNodes);
}

}  // namespace
}  // namespace rex::sim
