// End-to-end integration tests: full simulator runs across the complete
// configuration matrix (algorithm x topology x sharing x security), plus
// the cross-cutting guarantees the library advertises — determinism for a
// fixed seed regardless of thread count, SGX mode changing costs but not
// the learning trajectory, and the headline orderings (traffic, overhead)
// the paper's evaluation rests on.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "sim/experiment.hpp"
#include "sim/report.hpp"

namespace rex::sim {
namespace {

/// Small but non-trivial scenario: 24 one-user nodes, MF.
Scenario small_scenario() {
  Scenario scenario;
  scenario.dataset.n_users = 24;
  scenario.dataset.n_items = 400;
  scenario.dataset.n_ratings = 1400;
  scenario.dataset.seed = 7;
  scenario.nodes = 0;
  scenario.model = ModelKind::kMf;
  scenario.mf_sgd_steps_per_epoch = 100;
  scenario.rex.data_points_per_epoch = 40;
  scenario.epochs = 12;
  scenario.seed = 7;
  return scenario;
}

using MatrixParams = std::tuple<core::Algorithm, TopologyKind,
                                core::SharingMode, enclave::SecurityMode>;

class FullMatrix : public ::testing::TestWithParam<MatrixParams> {};

TEST_P(FullMatrix, RunsToCompletionWithSaneMetrics) {
  const auto [algorithm, topology, sharing, security] = GetParam();
  Scenario scenario = small_scenario();
  scenario.rex.algorithm = algorithm;
  scenario.topology = topology;
  scenario.rex.sharing = sharing;
  scenario.rex.security = security;

  const ExperimentResult result = run_scenario(scenario);
  ASSERT_EQ(result.rounds.size(), scenario.epochs + 1);  // + epoch 0

  double previous_time = -1.0;
  for (const RoundRecord& round : result.rounds) {
    // RMSE is a real number within the attainable range of a clamped
    // predictor on a 0.5..5.0 scale.
    EXPECT_TRUE(std::isfinite(round.mean_rmse));
    EXPECT_GT(round.mean_rmse, 0.0);
    EXPECT_LT(round.mean_rmse, 4.5);
    EXPECT_LE(round.min_rmse, round.mean_rmse);
    EXPECT_LE(round.mean_rmse, round.max_rmse);
    // The simulated clock advances strictly.
    EXPECT_GT(round.cumulative_time.seconds, previous_time);
    previous_time = round.cumulative_time.seconds;
    EXPECT_GE(round.round_time.seconds, 0.0);
    EXPECT_GT(round.mean_memory_bytes, 0.0);
  }
  // Someone shared something after epoch 0.
  EXPECT_GT(result.mean_epoch_traffic(), 0.0);
  // Training moves the error below the epoch-0 value.
  EXPECT_LT(result.final_rmse(), result.rounds.front().mean_rmse);
}

std::string matrix_param_name(
    const ::testing::TestParamInfo<MatrixParams>& info) {
  std::string name = core::to_string(std::get<0>(info.param));
  name += "_";
  name += to_string(std::get<1>(info.param));
  name += "_";
  name += core::to_string(std::get<2>(info.param));
  name += std::get<3>(info.param) == enclave::SecurityMode::kNative
              ? "_native"
              : "_sgx";
  for (char& c : name) {
    if (c == '-' || c == ',' || c == ' ') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, FullMatrix,
    ::testing::Combine(
        ::testing::Values(core::Algorithm::kRmw, core::Algorithm::kDpsgd),
        ::testing::Values(TopologyKind::kSmallWorld,
                          TopologyKind::kErdosRenyi,
                          TopologyKind::kFullyConnected),
        ::testing::Values(core::SharingMode::kRawData,
                          core::SharingMode::kModel),
        ::testing::Values(enclave::SecurityMode::kNative,
                          enclave::SecurityMode::kSgxSimulated)),
    matrix_param_name);

TEST(Determinism, SameSeedSameTrajectory) {
  Scenario scenario = small_scenario();
  const ExperimentResult a = run_scenario(scenario);
  const ExperimentResult b = run_scenario(scenario);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t e = 0; e < a.rounds.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.rounds[e].mean_rmse, b.rounds[e].mean_rmse) << e;
    EXPECT_DOUBLE_EQ(a.rounds[e].cumulative_time.seconds,
                     b.rounds[e].cumulative_time.seconds)
        << e;
    EXPECT_DOUBLE_EQ(a.rounds[e].mean_bytes_in_out,
                     b.rounds[e].mean_bytes_in_out)
        << e;
  }
}

TEST(Determinism, ThreadCountDoesNotChangeResults) {
  // Nodes own disjoint state and rounds are barriers, so the worker count
  // must not affect the arithmetic (DESIGN.md "Determinism").
  Scenario scenario = small_scenario();
  scenario.threads = 1;
  const ExperimentResult serial = run_scenario(scenario);
  scenario.threads = 4;
  const ExperimentResult parallel = run_scenario(scenario);
  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  for (std::size_t e = 0; e < serial.rounds.size(); ++e) {
    EXPECT_DOUBLE_EQ(serial.rounds[e].mean_rmse,
                     parallel.rounds[e].mean_rmse)
        << e;
  }
}

TEST(Determinism, DifferentSeedsDiffer) {
  Scenario scenario = small_scenario();
  const ExperimentResult a = run_scenario(scenario);
  scenario.seed = 1234;
  const ExperimentResult b = run_scenario(scenario);
  EXPECT_NE(a.final_rmse(), b.final_rmse());
}

TEST(SgxEquivalence, SecurityModeChangesCostsNotLearning) {
  // Same code runs in both modes (§III-E of the paper): the learning
  // trajectory must be bit-identical; only stage times and memory differ.
  Scenario native = small_scenario();
  native.rex.security = enclave::SecurityMode::kNative;
  Scenario sgx = small_scenario();
  sgx.rex.security = enclave::SecurityMode::kSgxSimulated;

  const ExperimentResult n = run_scenario(native);
  const ExperimentResult s = run_scenario(sgx);
  ASSERT_EQ(n.rounds.size(), s.rounds.size());
  for (std::size_t e = 0; e < n.rounds.size(); ++e) {
    EXPECT_DOUBLE_EQ(n.rounds[e].mean_rmse, s.rounds[e].mean_rmse) << e;
  }
  // SGX pays for transitions and AEAD: simulated time is strictly larger.
  EXPECT_GT(s.total_time().seconds, n.total_time().seconds);
}

TEST(PaperShapes, ModelSharingMovesOrdersOfMagnitudeMoreBytes) {
  // Fig 2's headline at test scale. The MF model here has
  // (400 + 24) * 10 + 424 parameters ~ 17 KiB vs 40 * 12 B shares.
  Scenario rex = small_scenario();
  rex.rex.sharing = core::SharingMode::kRawData;
  Scenario ms = small_scenario();
  ms.rex.sharing = core::SharingMode::kModel;
  const double rex_traffic = run_scenario(rex).mean_epoch_traffic();
  const double ms_traffic = run_scenario(ms).mean_epoch_traffic();
  EXPECT_GT(ms_traffic, 20.0 * rex_traffic);
}

TEST(PaperShapes, RexReachesModelSharingErrorFaster) {
  // Table II's rule at test scale: target = MS final error; REX reaches it
  // in less simulated time. Needs the paper's regime — an item-dominated
  // model that dwarfs the per-epoch raw-data share (here ~120 KiB vs
  // 40 x 12 B), which is what makes MS epochs expensive.
  Scenario rex_scenario = small_scenario();
  rex_scenario.dataset.n_items = 3000;
  rex_scenario.rex.sharing = core::SharingMode::kRawData;
  rex_scenario.epochs = 40;
  Scenario ms_scenario = small_scenario();
  ms_scenario.dataset.n_items = 3000;
  ms_scenario.rex.sharing = core::SharingMode::kModel;
  ms_scenario.epochs = 20;

  const ExperimentResult rex = run_scenario(rex_scenario);
  const ExperimentResult ms = run_scenario(ms_scenario);
  const SpeedupRow row = make_speedup_row("test", rex, ms, 0.01);
  ASSERT_GT(row.rex_seconds, 0.0) << "REX never reached the MS target";
  EXPECT_GT(row.speedup(), 1.0);
}

TEST(PaperShapes, SgxOverheadLowForRexHighForModelSharing) {
  // Table IV's contrast at test scale, on mean epoch seconds.
  const auto overhead = [](core::SharingMode sharing) {
    Scenario native = small_scenario();
    native.topology = TopologyKind::kFullyConnected;
    native.rex.sharing = sharing;
    Scenario sgx = native;
    sgx.rex.security = enclave::SecurityMode::kSgxSimulated;
    const double native_epoch =
        run_scenario(native).mean_epoch_seconds();
    const double sgx_epoch = run_scenario(sgx).mean_epoch_seconds();
    return sgx_epoch / native_epoch - 1.0;
  };
  const double rex_overhead = overhead(core::SharingMode::kRawData);
  const double ms_overhead = overhead(core::SharingMode::kModel);
  EXPECT_GT(rex_overhead, 0.0);
  EXPECT_GT(ms_overhead, rex_overhead);
}

TEST(FixedBatches, RuleKeepsEpochTimeConstantAsStoreGrows) {
  // §III-E ablation: with the rule, train-stage time stays flat while the
  // raw-data store grows; without it, train time grows with the store.
  Scenario fixed = small_scenario();
  fixed.epochs = 16;
  Scenario full_pass = fixed;
  full_pass.rex.fixed_batches_per_epoch = false;

  const ExperimentResult with_rule = run_scenario(fixed);
  const ExperimentResult without_rule = run_scenario(full_pass);

  const auto train_at = [](const ExperimentResult& r, std::size_t e) {
    return r.rounds[e].mean_stages.train.seconds;
  };
  // Store grows across the run in both cases.
  EXPECT_GT(with_rule.rounds.back().mean_store_size,
            with_rule.rounds.front().mean_store_size);
  // With the rule: last-epoch train cost within 1% of the first epoch's.
  EXPECT_NEAR(train_at(with_rule, 15) / train_at(with_rule, 1), 1.0, 0.01);
  // Without: train cost grows with the store (at least 2x here).
  EXPECT_GT(train_at(without_rule, 15), 2.0 * train_at(without_rule, 1));
}

TEST(Centralized, BaselineConvergesBelowDecentralizedStart) {
  Scenario scenario = small_scenario();
  const ExperimentResult central = run_scenario_centralized(scenario, 15);
  ASSERT_EQ(central.rounds.size(), 15u);
  EXPECT_LT(central.final_rmse(), central.rounds.front().mean_rmse);
  // No network in the centralized baseline.
  for (const RoundRecord& r : central.rounds) {
    EXPECT_EQ(r.mean_bytes_in_out, 0.0);
  }
}

TEST(Attestation, SimulatedSgxRunsAttestBeforeProtocol) {
  Scenario scenario = small_scenario();
  scenario.rex.security = enclave::SecurityMode::kSgxSimulated;
  ScenarioInputs inputs;
  Simulator simulator = make_scenario_simulator(scenario, inputs);
  simulator.run_attestation();
  EXPECT_GT(simulator.attestation_rounds(), 0u);
  for (core::NodeId id = 0; id < simulator.node_count(); ++id) {
    EXPECT_TRUE(simulator.host(id).trusted().fully_attested()) << id;
  }
}

}  // namespace
}  // namespace rex::sim
