// Simulation tests: cost model algebra, simulator end-to-end behaviour
// (convergence, determinism incl. thread-count independence, traffic gap,
// SGX overhead direction), centralized baseline, scenario presets, and the
// CSV writers' headers against their docs/reporting.md tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/netstats.hpp"
#include "sim/centralized.hpp"
#include "sim/cost_model.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace rex::sim {
namespace {

TEST(CostModel, NetworkTime) {
  CostParams params;
  params.link_latency_s = 1e-4;
  params.bandwidth_bytes_per_s = 1e6;
  const CostModel model(params);
  EXPECT_DOUBLE_EQ(model.network_time(0, 0).seconds, 0.0);
  // 1 MB over 1 MB/s + 1 message latency.
  EXPECT_NEAR(model.network_time(1000000, 1).seconds, 1.0 + 1e-4, 1e-12);
  EXPECT_NEAR(model.network_time(0, 5).seconds, 5e-4, 1e-12);
}

TEST(CostModel, StageTimesScaleWithWork) {
  const CostModel model{CostParams{}};
  core::EpochCounters c;
  c.sgd_samples = 1000;
  c.test_predictions = 100;
  enclave::RuntimeStats rt;
  const StageTimes small =
      model.stage_times(c, rt, 1.0, false, 100, 20);
  c.sgd_samples = 2000;
  const StageTimes big = model.stage_times(c, rt, 1.0, false, 100, 20);
  EXPECT_NEAR(big.train.seconds, 2.0 * small.train.seconds, 1e-12);
  EXPECT_GT(small.test.seconds, 0.0);
  EXPECT_DOUBLE_EQ(small.merge.seconds, 0.0);
}

TEST(CostModel, SgxAddsOverhead) {
  const CostModel model{CostParams{}};
  core::EpochCounters c;
  c.sgd_samples = 1000;
  c.bytes_serialized = 100000;
  c.messages_sent = 2;
  c.bytes_deserialized = 100000;
  enclave::RuntimeStats rt;
  rt.ecalls = 3;
  rt.ocalls = 2;
  const StageTimes native = model.stage_times(c, rt, 1.0, false, 100, 20);
  const StageTimes sgx = model.stage_times(c, rt, 1.0, true, 100, 20);
  EXPECT_GT(sgx.train.seconds, native.train.seconds);
  EXPECT_GT(sgx.share.seconds, native.share.seconds);
  EXPECT_GT(sgx.merge.seconds, native.merge.seconds);
  // Memory slowdown multiplies compute further (EPC overcommit).
  const StageTimes paged = model.stage_times(c, rt, 1.5, true, 100, 20);
  EXPECT_NEAR(paged.train.seconds, 1.5 * sgx.train.seconds, 1e-12);
}

Scenario tiny_scenario() {
  Scenario s;
  s.dataset.n_users = 24;
  s.dataset.n_items = 200;
  s.dataset.n_ratings = 1500;
  s.dataset.seed = 3;
  s.nodes = 0;  // one node per user
  s.topology = TopologyKind::kSmallWorld;
  s.model = ModelKind::kMf;
  s.mf_sgd_steps_per_epoch = 60;
  s.rex.sharing = core::SharingMode::kRawData;
  s.rex.algorithm = core::Algorithm::kDpsgd;
  s.rex.data_points_per_epoch = 30;
  s.epochs = 25;
  s.seed = 9;
  return s;
}

TEST(Simulator, RunsAndConverges) {
  const ExperimentResult result = run_scenario(tiny_scenario());
  ASSERT_EQ(result.rounds.size(), 26u);  // epoch 0 + 25
  EXPECT_LT(result.final_rmse(), result.rounds.front().mean_rmse);
  // Simulated clock strictly increases.
  for (std::size_t i = 1; i < result.rounds.size(); ++i) {
    EXPECT_GT(result.rounds[i].cumulative_time.seconds,
              result.rounds[i - 1].cumulative_time.seconds);
  }
}

RoundRecord reporting_record(std::size_t nodes, double rmse) {
  RoundRecord record;
  record.nodes_reporting = nodes;
  record.mean_rmse = rmse;
  return record;
}

TEST(Simulator, FinalRmseSkipsRecordsOfNodesThatRanAhead) {
  // Hand-built: the last records cover fewer nodes than the run has.
  ExperimentResult result;
  for (const RoundRecord& record :
       {reporting_record(4, 0.9), reporting_record(4, 0.7),
        reporting_record(3, 0.65), reporting_record(1, 0.95)}) {
    result.rounds.push_back(record);
  }
  EXPECT_EQ(result.final_rmse(), 0.7);
  result.rounds.push_back(reporting_record(4, 0.6));
  EXPECT_EQ(result.final_rmse(), 0.6);  // a full last record is the answer
  EXPECT_EQ(ExperimentResult{}.final_rmse(), 0.0);

  // Event-driven stragglers: fast nodes record epochs beyond the slowest
  // node's, so the last record covers only some of the nodes.
  Scenario s = tiny_scenario();
  s.epochs = 8;
  s.engine_mode = EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.5;
  s.dynamics.straggler_probability = 0.2;
  const ExperimentResult run = run_scenario(s);
  const std::size_t nodes = s.dataset.n_users;
  ASSERT_LT(run.rounds.back().nodes_reporting, nodes);
  double last_full = -1.0;
  for (const RoundRecord& record : run.rounds) {
    if (record.nodes_reporting == nodes) last_full = record.mean_rmse;
  }
  ASSERT_GE(last_full, 0.0);
  EXPECT_EQ(run.final_rmse(), last_full);
  EXPECT_NE(run.final_rmse(), run.rounds.back().mean_rmse);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const ExperimentResult a = run_scenario(tiny_scenario());
  const ExperimentResult b = run_scenario(tiny_scenario());
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].mean_rmse, b.rounds[i].mean_rmse);
    EXPECT_DOUBLE_EQ(a.rounds[i].cumulative_time.seconds,
                     b.rounds[i].cumulative_time.seconds);
  }
}

TEST(Simulator, ThreadCountDoesNotChangeResults) {
  Scenario s1 = tiny_scenario();
  s1.threads = 1;
  Scenario s2 = tiny_scenario();
  s2.threads = 4;
  const ExperimentResult a = run_scenario(s1);
  const ExperimentResult b = run_scenario(s2);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].mean_rmse, b.rounds[i].mean_rmse);
  }
}

TEST(Simulator, RexBeatsModelSharingOnTrafficAndTime) {
  Scenario rex = tiny_scenario();
  Scenario ms = tiny_scenario();
  ms.rex.sharing = core::SharingMode::kModel;
  const ExperimentResult rex_result = run_scenario(rex);
  const ExperimentResult ms_result = run_scenario(ms);
  // Orders of magnitude less traffic (Fig 2 row 1).
  EXPECT_GT(ms_result.mean_epoch_traffic(),
            20.0 * rex_result.mean_epoch_traffic());
  // And faster simulated epochs (Fig 1).
  EXPECT_LT(rex_result.total_time().seconds,
            ms_result.total_time().seconds);
}

TEST(Simulator, RmwCheaperThanDpsgdPerEpoch) {
  Scenario dpsgd = tiny_scenario();
  Scenario rmw = tiny_scenario();
  rmw.rex.algorithm = core::Algorithm::kRmw;
  rmw.rex.sharing = core::SharingMode::kModel;
  dpsgd.rex.sharing = core::SharingMode::kModel;
  const ExperimentResult r_rmw = run_scenario(rmw);
  const ExperimentResult r_dpsgd = run_scenario(dpsgd);
  // Unicast vs broadcast (§IV-B): RMW epochs are cheaper in traffic.
  EXPECT_LT(r_rmw.mean_epoch_traffic(), r_dpsgd.mean_epoch_traffic());
}

TEST(Simulator, SgxRunsAttestationAndAddsOverhead) {
  Scenario native = tiny_scenario();
  Scenario sgx = tiny_scenario();
  sgx.rex.security = enclave::SecurityMode::kSgxSimulated;
  const ExperimentResult r_native = run_scenario(native);
  const ExperimentResult r_sgx = run_scenario(sgx);
  ASSERT_EQ(r_native.rounds.size(), r_sgx.rounds.size());
  // Identical learning (same seeds; SGX changes cost, not math).
  for (std::size_t i = 0; i < r_native.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(r_native.rounds[i].mean_rmse,
                     r_sgx.rounds[i].mean_rmse);
  }
  // But slower simulated time.
  EXPECT_GT(r_sgx.total_time().seconds, r_native.total_time().seconds);
}

TEST(Simulator, BarrierEpochTrafficConservesTransportBytes) {
  // Barrier rounds report each node's bytes since its previous record, the
  // rule event rounds use: the records add up to every byte the transport
  // counted after attestation, and attestation bytes stay out of epoch 0.
  for (const auto security : {enclave::SecurityMode::kNative,
                               enclave::SecurityMode::kSgxSimulated}) {
    const bool secure = security != enclave::SecurityMode::kNative;
    SCOPED_TRACE(secure ? "simulated SGX" : "native");
    Scenario s = tiny_scenario();
    s.rex.security = security;
    ScenarioInputs inputs;
    Simulator sim = make_scenario_simulator(s, inputs);
    sim.run_attestation();
    std::uint64_t attestation_bytes = 0;
    for (core::NodeId id = 0; id < sim.node_count(); ++id) {
      attestation_bytes += sim.transport().stats(id).bytes_total();
    }
    EXPECT_EQ(attestation_bytes > 0, secure);
    sim.initialize_nodes();
    sim.run_epochs(4);

    double reported = 0.0;
    for (const RoundRecord& r : sim.result().rounds) {
      reported += r.mean_bytes_in_out * static_cast<double>(r.nodes_reporting);
    }
    std::uint64_t total = 0;
    for (core::NodeId id = 0; id < sim.node_count(); ++id) {
      total += sim.transport().stats(id).bytes_total();
    }
    const double accrued = static_cast<double>(total - attestation_bytes);
    EXPECT_GT(accrued, 0.0);
    EXPECT_NEAR(reported, accrued, 1e-9 * accrued);
  }
}

/// The rex::Error message assembling `scenario` throws ("" if none).
std::string assembly_error(const Scenario& scenario) {
  ScenarioInputs inputs;
  try {
    (void)make_scenario_simulator(scenario, inputs);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Simulator, ValidatesSetup) {
  Scenario one_node = tiny_scenario();
  one_node.topology = TopologyKind::kFullyConnected;
  one_node.nodes = 1;
  EXPECT_NE(assembly_error(one_node).find("at least two nodes"),
            std::string::npos);
  Scenario no_platform = tiny_scenario();
  no_platform.platforms = 0;
  EXPECT_NE(assembly_error(no_platform).find("at least one platform"),
            std::string::npos);
}

TEST(Centralized, ConvergesAndIsFastest) {
  const Scenario s = tiny_scenario();
  const ExperimentResult central = run_scenario_centralized(s, 25);
  ASSERT_EQ(central.rounds.size(), 25u);
  EXPECT_LT(central.final_rmse(), central.rounds.front().mean_rmse);
  const ExperimentResult decentralized = run_scenario(s);
  // The centralized baseline reaches its error floor fastest (Fig 1).
  const double target = central.final_rmse() + 0.05;
  const auto c_time = central.time_to_reach(target);
  ASSERT_TRUE(c_time.has_value());
  const auto d_time = decentralized.time_to_reach(target);
  if (d_time.has_value()) {
    EXPECT_LT(c_time->seconds, d_time->seconds);
  }
}

TEST(Report, SpeedupRowComputation) {
  ExperimentResult rex, ms;
  for (int i = 0; i < 10; ++i) {
    RoundRecord r;
    r.epoch = static_cast<std::uint64_t>(i);
    r.mean_rmse = 2.0 - 0.1 * i;
    r.cumulative_time = SimTime{1.0 * (i + 1)};
    rex.rounds.push_back(r);
    r.cumulative_time = SimTime{10.0 * (i + 1)};
    ms.rounds.push_back(r);
  }
  const SpeedupRow row = make_speedup_row("D-PSGD, ER", rex, ms, 0.0);
  EXPECT_NEAR(row.error_target, 1.1, 1e-9);
  EXPECT_NEAR(row.speedup(), 10.0, 1e-9);
}

TEST(Report, CsvWrites) {
  const ExperimentResult result = run_scenario(tiny_scenario());
  const std::string path = "/tmp/rex_sim_test.csv";
  write_csv(result, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("mean_rmse"), std::string::npos);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, result.rounds.size());
}

/// First line of a CSV file, split on commas.
std::vector<std::string> csv_header(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string line;
  std::getline(in, line);
  std::vector<std::string> names;
  std::stringstream cells(line);
  std::string name;
  while (std::getline(cells, name, ',')) names.push_back(name);
  return names;
}

/// Columns docs/reporting.md documents for `writer`: the backticked names
/// in the first cell of each table row under the `## ... `writer`` heading
/// (one cell may name several: "`min_rmse` / `max_rmse`").
std::vector<std::string> documented_columns(const std::string& writer) {
  const std::filesystem::path doc =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "docs" /
      "reporting.md";
  std::ifstream in(doc);
  EXPECT_TRUE(in.good()) << doc;
  std::vector<std::string> names;
  bool in_section = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line.find("`" + writer + "`") != std::string::npos;
      continue;
    }
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (std::size_t open = cell.find('`'); open != std::string::npos;) {
      const std::size_t close = cell.find('`', open + 1);
      names.push_back(cell.substr(open + 1, close - open - 1));
      open = cell.find('`', close + 1);
    }
  }
  return names;
}

/// The names of `names` that `pool` lacks, space-separated.
std::string absent_from(const std::vector<std::string>& names,
                        const std::vector<std::string>& pool) {
  std::string absent;
  for (const std::string& name : names) {
    if (std::find(pool.begin(), pool.end(), name) == pool.end()) {
      absent += (absent.empty() ? "" : " ") + name;
    }
  }
  return absent;
}

TEST(Report, EveryWriterHeaderMatchesItsReportingTable) {
  Scenario s = tiny_scenario();
  s.epochs = 1;
  ScenarioInputs inputs;
  Simulator sim = make_scenario_simulator(s, inputs);
  sim.run(s.epochs);
  const auto path = [](const std::string& writer) {
    return (std::filesystem::temp_directory_path() /
            ("rex_schema_" + writer + ".csv"))
        .string();
  };
  write_csv(sim.result(), path("write_csv"));
  write_node_csv(sim.engine(), path("write_node_csv"));
  write_edge_csv(sim.engine(), path("write_edge_csv"));
  write_query_csv(sim.engine(), path("write_query_csv"));
  net::write_netstats_csv(path("write_netstats_csv"), 0, net::NetStats{});

  for (const std::string writer :
       {"write_csv", "write_node_csv", "write_edge_csv", "write_query_csv",
        "write_netstats_csv"}) {
    SCOPED_TRACE(writer);
    const std::vector<std::string> header = csv_header(path(writer));
    const std::vector<std::string> documented = documented_columns(writer);
    ASSERT_FALSE(header.empty());
    ASSERT_FALSE(documented.empty());
    EXPECT_EQ(absent_from(header, documented), "")
        << "written but not in docs/reporting.md";
    EXPECT_EQ(absent_from(documented, header), "")
        << "in docs/reporting.md but not written";
    std::filesystem::remove(path(writer));
  }
}

TEST(Scenario, LabelFormat) {
  Scenario s = tiny_scenario();
  EXPECT_EQ(scenario_label(s), "D-PSGD, SW, REX");
  s.rex.sharing = core::SharingMode::kModel;
  s.rex.algorithm = core::Algorithm::kRmw;
  s.topology = TopologyKind::kErdosRenyi;
  s.rex.security = enclave::SecurityMode::kSgxSimulated;
  EXPECT_EQ(scenario_label(s), "RMW, ER, MS (SGX)");
}

TEST(Scenario, PrepareProducesConsistentInputs) {
  const Scenario s = tiny_scenario();
  ScenarioInputs inputs = prepare_scenario(s);
  EXPECT_EQ(inputs.node_count, s.dataset.n_users);
  EXPECT_EQ(inputs.shards.size(), inputs.node_count);
  EXPECT_EQ(inputs.topology.node_count(), inputs.node_count);
  EXPECT_TRUE(inputs.topology.is_connected());
  Rng rng(1);
  auto model = inputs.model_factory(rng);
  EXPECT_EQ(model->kind(), std::string("mf"));
}

/// The same config, rebuilt from the init stream prepare_scenario derives
/// from the experiment seed.
std::unique_ptr<ml::RecModel> built_directly(const ml::RecModel& like,
                                             std::uint64_t seed) {
  Rng init_rng(seed ^ 0x1217C0);
  if (const auto* mf = dynamic_cast<const ml::MfModel*>(&like)) {
    return std::make_unique<ml::MfModel>(mf->config(), init_rng);
  }
  const auto& dnn = dynamic_cast<const ml::DnnModel&>(like);
  return std::make_unique<ml::DnnModel>(dnn.config(), init_rng);
}

TEST(Scenario, FactoryHandsEveryCallerACopyOfOneInitialModel) {
  struct Shape {
    const char* name;
    std::size_t users;
    std::size_t items;
    ModelKind model;
  };
  for (const Shape& shape :
       {Shape{"MF, rows up front", 24, 200, ModelKind::kMf},
        Shape{"MF, rows on demand", 60, 40, ModelKind::kMf},
        Shape{"DNN", 24, 200, ModelKind::kDnn}}) {
    SCOPED_TRACE(shape.name);
    Scenario s = tiny_scenario();
    s.dataset.n_users = shape.users;
    s.dataset.n_items = shape.items;
    s.dataset.n_ratings = 15 * shape.users;
    s.model = shape.model;
    const ScenarioInputs inputs = prepare_scenario(s);
    Rng rng(1);
    const std::unique_ptr<ml::RecModel> first = inputs.model_factory(rng);
    const std::unique_ptr<ml::RecModel> second = inputs.model_factory(rng);
    ASSERT_NE(first.get(), second.get());
    const Bytes bytes = first->serialize();
    EXPECT_EQ(second->serialize(), bytes);
    EXPECT_EQ(built_directly(*first, s.seed)->serialize(), bytes);
    if (const auto* mf = dynamic_cast<const ml::MfModel*>(first.get())) {
      EXPECT_EQ(mf->materialized_user_rows(),
                shape.users <= shape.items ? shape.users : 0u);
    }

    // Training one copy leaves the model the next caller gets untouched.
    Rng train_rng(7);
    first->train_epoch(inputs.split.train, train_rng);
    ASSERT_NE(first->serialize(), bytes);
    EXPECT_EQ(inputs.model_factory(rng)->serialize(), bytes);

    // The engine's workers call the factory at once (SimEngine::initialize).
    std::vector<Bytes> copies(8);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < copies.size(); ++t) {
      callers.emplace_back([&inputs, &copies, t] {
        Rng caller_rng(t);
        copies[t] = inputs.model_factory(caller_rng)->serialize();
      });
    }
    for (std::thread& caller : callers) caller.join();
    for (const Bytes& copy : copies) EXPECT_EQ(copy, bytes);
  }
}

}  // namespace
}  // namespace rex::sim
