// Serving-path tests (DESIGN.md §9): percentile estimator accuracy against
// exact sorted quantiles, top-k correctness (exclusion, k >= catalog, epoch
// stamps), the issued == served + dropped conservation invariant under
// churn, 1/2/8-thread bit-identity with queries + churn + geo WAN active in
// both disciplines, and golden identity — with the query load off, every
// committed pre-PR CSV column must stay byte-identical, and with it on,
// every column of both disciplines' serving dumps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ml/mf.hpp"
#include "ml/topk.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/link_model.hpp"
#include "sim/percentile.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"

namespace rex::sim {
namespace {

// ===== Percentile estimator vs exact sorted quantiles =====

/// Exact nearest-rank quantile of a sample set (the definition the
/// estimator approximates).
double exact_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double exact = q * static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-12));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

TEST(PercentileEstimatorT, EmptyEstimatorReportsZeros) {
  PercentileEstimator e;
  EXPECT_EQ(e.count(), 0u);
  EXPECT_EQ(e.quantile(0.5), 0.0);
  EXPECT_EQ(e.mean(), 0.0);
  EXPECT_EQ(e.min(), 0.0);
  EXPECT_EQ(e.max(), 0.0);
}

TEST(PercentileEstimatorT, SingleSampleIsExactAtEveryQuantile) {
  PercentileEstimator e;
  e.record(0.0321);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(e.quantile(q), 0.0321) << q;
  }
  EXPECT_DOUBLE_EQ(e.mean(), 0.0321);
  EXPECT_DOUBLE_EQ(e.max(), 0.0321);
}

TEST(PercentileEstimatorT, ConstantStreamIsExact) {
  PercentileEstimator e;
  for (int i = 0; i < 1000; ++i) e.record(2.5);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 2.5);
  EXPECT_DOUBLE_EQ(e.quantile(0.999), 2.5);
}

TEST(PercentileEstimatorT, UniformStreamTracksExactQuantiles) {
  // 10k samples spread over three decades; the log-bucket design caps the
  // relative error at the bucket growth ratio (~12% over this range at 256
  // buckets spanning 13 decades).
  PercentileEstimator e;
  std::vector<double> values;
  for (int i = 1; i <= 10000; ++i) {
    const double v = 1e-3 * std::pow(1000.0, i / 10000.0);
    values.push_back(v);
    e.record(v);
  }
  for (const double q : {0.05, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    const double exact = exact_quantile(values, q);
    EXPECT_NEAR(e.quantile(q), exact, exact * 0.12) << q;
  }
  double sum = 0.0;
  for (const double v : values) sum += v;
  EXPECT_DOUBLE_EQ(e.sum(), sum);
  EXPECT_DOUBLE_EQ(e.min(), values.front());
  EXPECT_DOUBLE_EQ(e.max(), values.back());
}

TEST(PercentileEstimatorT, BucketBoundaryValuesStayWithinOneBucket) {
  // Samples exactly on bucket boundaries must not leak into a bucket whose
  // range excludes them: estimate stays within a bucket ratio of exact.
  PercentileEstimator e(1e-3, 1e3, 64);
  std::vector<double> values;
  const double ratio = std::log(1e3 / 1e-3) / 64.0;
  for (int b = 0; b <= 64; ++b) {
    const double v = 1e-3 * std::exp(ratio * b);
    values.push_back(v);
    e.record(v);
  }
  const double growth = std::exp(ratio);  // per-bucket growth factor
  for (const double q : {0.1, 0.5, 0.9}) {
    const double exact = exact_quantile(values, q);
    EXPECT_LE(e.quantile(q), exact * growth) << q;
    EXPECT_GE(e.quantile(q), exact / growth) << q;
  }
}

TEST(PercentileEstimatorT, HeavyTailKeepsTailQuantilesHonest) {
  // 99% fast path at ~1ms, 1% outliers at ~2s: p50 must stay at the body,
  // p999 must land in the tail, max is exact.
  PercentileEstimator e;
  std::vector<double> values;
  for (int i = 0; i < 9900; ++i) {
    const double v = 1e-3 + 1e-6 * i;
    values.push_back(v);
    e.record(v);
  }
  for (int i = 0; i < 100; ++i) {
    const double v = 2.0 + 0.01 * i;
    values.push_back(v);
    e.record(v);
  }
  const double p50 = exact_quantile(values, 0.5);
  const double p999 = exact_quantile(values, 0.999);
  EXPECT_NEAR(e.quantile(0.5), p50, p50 * 0.12);
  EXPECT_NEAR(e.quantile(0.999), p999, p999 * 0.12);
  EXPECT_GT(e.quantile(0.999), 1.0);   // tail detected
  EXPECT_LT(e.quantile(0.5), 0.01);    // body unpolluted
  EXPECT_DOUBLE_EQ(e.max(), values.back());
}

TEST(PercentileEstimatorT, OutOfRangeSamplesClampToExactExtrema) {
  PercentileEstimator e(1e-3, 1.0, 16);
  e.record(1e-7);  // underflow bucket
  e.record(50.0);  // overflow bucket
  EXPECT_DOUBLE_EQ(e.min(), 1e-7);
  EXPECT_DOUBLE_EQ(e.max(), 50.0);
  EXPECT_GE(e.quantile(0.01), 1e-7);
  EXPECT_LE(e.quantile(0.999), 50.0);
}

TEST(PercentileEstimatorT, OrderIndependentAndMergeable) {
  std::vector<double> values;
  for (int i = 1; i <= 500; ++i) values.push_back(0.001 * i);
  PercentileEstimator forward, backward, merged_a, merged_b;
  for (std::size_t i = 0; i < values.size(); ++i) {
    forward.record(values[i]);
    backward.record(values[values.size() - 1 - i]);
    (i % 2 == 0 ? merged_a : merged_b).record(values[i]);
  }
  merged_a.merge(merged_b);
  for (const double q : {0.1, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(forward.quantile(q), backward.quantile(q)) << q;
    EXPECT_DOUBLE_EQ(forward.quantile(q), merged_a.quantile(q)) << q;
  }
  EXPECT_EQ(forward.count(), merged_a.count());
  EXPECT_DOUBLE_EQ(forward.sum(), merged_a.sum());
}

// ===== Top-k index unit tests =====

ml::MfModel make_model(std::size_t n_users, std::size_t n_items) {
  ml::MfConfig config;
  config.n_users = n_users;
  config.n_items = n_items;
  config.embedding_dim = 4;
  config.global_mean = 3.5f;
  Rng rng(7);
  return ml::MfModel(config, rng);
}

/// Brute-force reference: score every item, full sort under the index's
/// strict total order, slice the prefix.
std::vector<ml::ScoredItem> brute_force_topk(
    const ml::RecModel& model, data::UserId user, std::size_t k,
    std::span<const std::uint8_t> exclude) {
  std::vector<float> scores(model.item_count());
  model.score_items(user, scores);
  std::vector<ml::ScoredItem> all;
  for (data::ItemId i = 0; i < scores.size(); ++i) {
    if (!exclude.empty() && exclude[i] != 0) continue;
    all.push_back({i, scores[i]});
  }
  std::sort(all.begin(), all.end(), ml::ranks_before);
  all.resize(std::min(k, all.size()));
  return all;
}

TEST(TopKIndexT, MatchesBruteForceWithoutExclusions) {
  const ml::MfModel model = make_model(6, 40);
  ml::TopKIndex index;
  for (data::UserId user = 0; user < 6; ++user) {
    const auto got = index.query(model, user, 10, {});
    const auto want = brute_force_topk(model, user, 10, {});
    ASSERT_EQ(got.size(), want.size()) << user;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].item, want[i].item) << user << " rank " << i;
      EXPECT_EQ(got[i].score, want[i].score) << user << " rank " << i;
    }
  }
}

TEST(TopKIndexT, ExcludedItemsNeverAppear) {
  const ml::MfModel model = make_model(3, 30);
  std::vector<std::uint8_t> exclude(30, 0);
  for (data::ItemId i = 0; i < 30; i += 3) exclude[i] = 1;
  ml::TopKIndex index;
  const auto got = index.query(model, 1, 30, exclude);
  EXPECT_EQ(got.size(), 20u);  // 10 of 30 excluded
  for (const ml::ScoredItem& item : got) {
    EXPECT_EQ(exclude[item.item], 0) << item.item;
  }
  const auto want = brute_force_topk(model, 1, 30, exclude);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << i;
  }
}

TEST(TopKIndexT, KLargerThanCatalogReturnsFullRanking) {
  const ml::MfModel model = make_model(2, 12);
  ml::TopKIndex index;
  const auto got = index.query(model, 0, 500, {});
  EXPECT_EQ(got.size(), 12u);
  // A full ranking is a permutation of the catalog in strict rank order.
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_TRUE(ml::ranks_before(got[i - 1], got[i])) << i;
  }
}

TEST(TopKIndexT, FlopsScaleWithCatalog) {
  const ml::MfModel model = make_model(2, 12);
  EXPECT_EQ(ml::TopKIndex::flops_per_query(model),
            12 * model.flops_per_prediction());
}

// ===== Scenarios (mirror churn_test's committed-golden scenarios) =====

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

QueryLoadConfig test_load() {
  QueryLoadConfig load;
  load.rate_hz = 2000.0;  // aggregate over all nodes
  load.top_k = 5;
  load.zipf_s = 0.7;
  load.diurnal_amplitude = 0.4;
  load.diurnal_period_s = 0.002;
  load.stale_threshold_s = 0.0005;
  return load;
}

// ===== query_topk through the stack =====

TEST(QueryTopKT, EpochStampAndScratchReuse) {
  Scenario s = base_scenario();
  s.epochs = 3;
  ScenarioInputs inputs;
  Simulator simulator = make_scenario_simulator(s, inputs);
  simulator.run(s.epochs);
  core::TrustedNode& trusted = simulator.engine().host_mutable(0).trusted();
  ASSERT_GE(trusted.local_user_count(), 1u);
  const data::UserId user = trusted.local_user(0);
  const auto first = trusted.query_topk(user, 5);
  EXPECT_EQ(first.epoch, trusted.epochs_completed());
  EXPECT_GE(first.epoch, static_cast<std::uint64_t>(s.epochs));
  ASSERT_EQ(first.items.size(), 5u);
  const std::vector<ml::ScoredItem> snapshot(first.items.begin(),
                                             first.items.end());
  // Identical repeated call (cache-warm path): same answer, same epoch.
  const auto second = trusted.query_topk(user, 5);
  EXPECT_EQ(second.epoch, first.epoch);
  ASSERT_EQ(second.items.size(), snapshot.size());
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(second.items[i].item, snapshot[i].item) << i;
    EXPECT_EQ(second.items[i].score, snapshot[i].score) << i;
  }
  // k beyond the catalog clamps to the (unseen part of the) catalog.
  const auto full = trusted.query_topk(user, 10'000);
  EXPECT_LE(full.items.size(), s.dataset.n_items);
  EXPECT_GT(full.items.size(), 0u);
}

// ===== Conservation: issued == served + dropped under churn =====

TEST(ServingConservation, IssuedEqualsServedPlusDroppedUnderChurn) {
  Scenario s = churn_scenario();
  s.query_load = test_load();
  ScenarioInputs inputs;
  Simulator simulator = make_scenario_simulator(s, inputs);
  simulator.run(s.epochs);
  const SimEngine& engine = simulator.engine();
  const SimEngine::QueryTotals totals = engine.query_totals();
  EXPECT_GT(totals.issued, 0u);
  EXPECT_EQ(totals.issued, totals.served + totals.dropped_offline);
  EXPECT_LE(totals.stale, totals.served);
  EXPECT_EQ(engine.query_latency().count(), totals.served);
  EXPECT_EQ(engine.query_staleness().count(), totals.served);
  std::uint64_t issued = 0, served = 0, dropped = 0;
  for (core::NodeId id = 0; id < simulator.node_count(); ++id) {
    const SimEngine::NodeStatus& status = engine.node_status(id);
    EXPECT_EQ(status.queries_issued,
              status.queries_served + status.queries_dropped_offline)
        << id;
    issued += status.queries_issued;
    served += status.queries_served;
    dropped += status.queries_dropped_offline;
  }
  EXPECT_EQ(issued, totals.issued);
  EXPECT_EQ(served, totals.served);
  EXPECT_EQ(dropped, totals.dropped_offline);
}

TEST(ServingConservation, BarrierModeServesWithoutDrops) {
  Scenario s = base_scenario();
  s.query_load = test_load();
  ScenarioInputs inputs;
  Simulator simulator = make_scenario_simulator(s, inputs);
  simulator.run(s.epochs);
  const SimEngine::QueryTotals totals = simulator.engine().query_totals();
  EXPECT_GT(totals.issued, 0u);
  EXPECT_EQ(totals.issued, totals.served);  // no churn in barrier mode
  EXPECT_EQ(totals.dropped_offline, 0u);
}

// ===== Thread-count bit-identity with serving + churn + geo WAN =====

void expect_rounds_identical(const ExperimentResult& a,
                             const ExperimentResult& b) {
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
  }
}

struct ServingFingerprint {
  SimEngine::QueryTotals totals;
  std::vector<double> quantiles;
  std::vector<std::uint64_t> per_node;
};

ServingFingerprint serving_fingerprint(const SimEngine& engine,
                                       std::size_t nodes) {
  ServingFingerprint fp;
  fp.totals = engine.query_totals();
  for (const double q : {0.5, 0.99, 0.999}) {
    fp.quantiles.push_back(engine.query_latency().quantile(q));
    fp.quantiles.push_back(engine.query_staleness().quantile(q));
  }
  fp.quantiles.push_back(engine.query_latency().sum());
  fp.quantiles.push_back(engine.query_staleness().sum());
  for (core::NodeId id = 0; id < nodes; ++id) {
    const SimEngine::NodeStatus& status = engine.node_status(id);
    fp.per_node.push_back(status.queries_issued);
    fp.per_node.push_back(status.queries_served);
    fp.per_node.push_back(status.queries_stale);
    fp.per_node.push_back(status.queries_dropped_offline);
  }
  return fp;
}

void expect_serving_identical(const ServingFingerprint& a,
                              const ServingFingerprint& b) {
  EXPECT_EQ(a.totals.issued, b.totals.issued);
  EXPECT_EQ(a.totals.served, b.totals.served);
  EXPECT_EQ(a.totals.stale, b.totals.stale);
  EXPECT_EQ(a.totals.dropped_offline, b.totals.dropped_offline);
  ASSERT_EQ(a.quantiles.size(), b.quantiles.size());
  for (std::size_t i = 0; i < a.quantiles.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.quantiles[i], b.quantiles[i]) << i;
  }
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t i = 0; i < a.per_node.size(); ++i) {
    EXPECT_EQ(a.per_node[i], b.per_node[i]) << i;
  }
}

void run_thread_identity(Scenario scenario) {
  ExperimentResult reference;
  ServingFingerprint reference_fp;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    Scenario run = scenario;
    run.threads = threads;
    ScenarioInputs inputs;
    Simulator simulator = make_scenario_simulator(run, inputs);
    simulator.run(run.epochs);
    const ServingFingerprint fp =
        serving_fingerprint(simulator.engine(), simulator.node_count());
    EXPECT_GT(fp.totals.issued, 0u) << threads;
    if (threads == 1) {
      reference = simulator.result();
      reference_fp = fp;
    } else {
      expect_rounds_identical(reference, simulator.result());
      expect_serving_identical(reference_fp, fp);
    }
  }
}

TEST(ServingDeterminism, EventChurnGeoWanBitIdenticalAcrossThreads) {
  Scenario s = churn_scenario();
  s.query_load = test_load();
  s.costs.wan = make_wan_profile("geo");
  run_thread_identity(s);
}

TEST(ServingDeterminism, BarrierBitIdenticalAcrossThreads) {
  Scenario s = base_scenario();
  s.query_load = test_load();
  run_thread_identity(s);
}

// ===== Golden identity with the query load off =====

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
/// dump must exist in the fresh dump and match cell for cell. Columns this
/// PR added (the queries_* counters) are allowed; renames or drift fail.
void expect_csv_matches_golden(const std::string& fresh_path,
                               const std::string& golden_name) {
  const Csv golden = read_csv(golden_dir() + "/" + golden_name);
  const Csv fresh = read_csv(fresh_path);
  ASSERT_FALSE(golden.rows.empty());
  ASSERT_EQ(golden.rows.size(), fresh.rows.size()) << golden_name;
  for (std::size_t g = 0; g < golden.header.size(); ++g) {
    const auto it = std::find(fresh.header.begin(), fresh.header.end(),
                              golden.header[g]);
    ASSERT_NE(it, fresh.header.end())
        << "column " << golden.header[g] << " disappeared (" << golden_name
        << ")";
    const std::size_t f =
        static_cast<std::size_t>(it - fresh.header.begin());
    for (std::size_t row = 0; row < golden.rows.size(); ++row) {
      ASSERT_LT(g, golden.rows[row].size());
      ASSERT_LT(f, fresh.rows[row].size());
      EXPECT_EQ(golden.rows[row][g], fresh.rows[row][f])
          << golden.header[g] << " row " << row << " (" << golden_name
          << ")";
    }
  }
}

/// Writes one dump through `write` to a temp path and matches it against
/// the committed golden of the same name.
template <typename Write>
void expect_dump_matches_golden(const std::string& golden_name, Write write) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("rex_" + golden_name))
          .string();
  write(path);
  expect_csv_matches_golden(path, golden_name);
  std::filesystem::remove(path);
}

void expect_golden_identity(const Scenario& scenario,
                            const std::string& rounds_golden,
                            const std::string& nodes_golden) {
  ScenarioInputs inputs;
  Simulator simulator = make_scenario_simulator(scenario, inputs);
  simulator.run(scenario.epochs);
  expect_dump_matches_golden(rounds_golden, [&](const std::string& path) {
    write_csv(simulator.result(), path);
  });
  expect_dump_matches_golden(nodes_golden, [&](const std::string& path) {
    write_node_csv(simulator.engine(), path);
  });
  // Serving-off runs must also report dead-zero query counters.
  const SimEngine::QueryTotals totals = simulator.engine().query_totals();
  EXPECT_EQ(totals.issued, 0u);
  EXPECT_EQ(totals.served, 0u);
  EXPECT_EQ(simulator.engine().query_latency().count(), 0u);
}

TEST(ServingOffGolden, BarrierDpsgdBitIdenticalToPrePrDumps) {
  expect_golden_identity(base_scenario(),
                         "serving_off_barrier_dpsgd_rounds.csv",
                         "serving_off_barrier_dpsgd_nodes.csv");
}

TEST(ServingOffGolden, EventChurnBitIdenticalToPrePrDumps) {
  expect_golden_identity(churn_scenario(),
                         "serving_off_event_churn_rounds.csv",
                         "serving_off_event_churn_nodes.csv");
}

// ===== Golden identity with the query load on =====
//
// Full-width dumps (every column of write_csv, write_node_csv and
// write_query_csv) of one serving run per discipline. They pin the barrier
// rounds' record and query values and the secure run's attestation and
// re-attestation paths, none of which the serving-off goldens reach.

void expect_serving_goldens(const Simulator& simulator,
                            const std::string& prefix) {
  expect_dump_matches_golden(prefix + "_rounds.csv",
                             [&](const std::string& path) {
                               write_csv(simulator.result(), path);
                             });
  expect_dump_matches_golden(prefix + "_nodes.csv",
                             [&](const std::string& path) {
                               write_node_csv(simulator.engine(), path);
                             });
  expect_dump_matches_golden(prefix + "_queries.csv",
                             [&](const std::string& path) {
                               write_query_csv(simulator.engine(), path);
                             });
}

TEST(ServingOnGolden, BarrierDpsgdMatchesCommittedDumps) {
  Scenario s = base_scenario();
  s.query_load = test_load();
  ScenarioInputs inputs;
  Simulator simulator = make_scenario_simulator(s, inputs);
  simulator.run(s.epochs);
  EXPECT_GT(simulator.engine().query_totals().served, 0u);
  expect_serving_goldens(simulator, "serving_on_barrier_dpsgd");
}

TEST(ServingOnGolden, SecureEventChurnReattestMatchesCommittedDumps) {
  Scenario s = churn_scenario();
  s.rex.security = enclave::SecurityMode::kSgxSimulated;
  s.dynamics.reattest_interval_s = 0.002;
  s.dynamics.rejoin_timeout_s = 0.005;  // keeps the run to 25 records
  s.query_load = test_load();
  ScenarioInputs inputs;
  Simulator simulator = make_scenario_simulator(s, inputs);
  simulator.run(s.epochs);
  // Attestation steps count as processed events; both pin the
  // pre-protocol handshake loop alongside the dumps.
  EXPECT_EQ(simulator.engine().attestation_rounds(), 4u);
  EXPECT_EQ(simulator.engine().events_processed(), 2557u);
  EXPECT_GT(simulator.engine().query_totals().dropped_offline, 0u);
  expect_serving_goldens(simulator, "serving_on_secure_event_churn");
}

// ===== Query CSV writer =====

TEST(QueryCsvT, SchemaAndConservationInTheDump) {
  Scenario s = churn_scenario();
  s.query_load = test_load();
  ScenarioInputs inputs;
  Simulator simulator = make_scenario_simulator(s, inputs);
  simulator.run(s.epochs);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rex_query.csv").string();
  write_query_csv(simulator.engine(), path);
  const Csv csv = read_csv(path);
  ASSERT_EQ(csv.rows.size(), 1u);
  ASSERT_EQ(csv.header.size(), 15u);
  EXPECT_EQ(csv.header.front(), "queries_issued");
  EXPECT_EQ(csv.header.back(), "staleness_max_s");
  ASSERT_EQ(csv.rows[0].size(), csv.header.size());
  const std::uint64_t issued = std::stoull(csv.rows[0][0]);
  const std::uint64_t served = std::stoull(csv.rows[0][1]);
  const std::uint64_t dropped = std::stoull(csv.rows[0][3]);
  EXPECT_GT(issued, 0u);
  EXPECT_EQ(issued, served + dropped);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rex::sim
