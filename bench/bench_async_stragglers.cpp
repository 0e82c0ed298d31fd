// Stragglers & engine scale — the event engine's two showcases.
//
// Default mode: barrier vs event-driven scheduling under a log-normal
// straggler distribution (new workload enabled by the event engine; cf. the
// heterogeneous-device scenarios of decentralized mobile recommender
// deployments). Every round of a barrier-synchronized run waits for its
// slowest node, so the round time is the *max* of N log-normal draws; the
// event engine lets every node advance on its own timeline, so a straggling
// node only delays itself (RMW) or its immediate neighbors' next round
// (D-PSGD).
//
// --wan <profile>: the heterogeneous-link showcase. Runs the 1k-node
// (10k with --paper-scale) event-driven learning scenario over a per-edge
// sim::LinkModel (lan | wan | geo presets: geo regions, log-normal per-edge
// latency/bandwidth draws, sender-queued transmission), verifies the
// metrics are bit-identical across 1/2/8 worker threads, compares
// completion time against the homogeneous run, and — with --csv — dumps
// the per-edge latency/bandwidth/delivery stats next to the epoch and
// per-node series (see docs/reporting.md). Exits non-zero if the
// thread-count determinism check fails.
//
// --churn: the churn/rejoin showcase. RMW at the engine-scale node count
// with churn enabled, so returning nodes run the rejoin protocol
// (re-attestation hooks + state resync, DESIGN.md §6); verifies the
// metrics are bit-identical across 1/2/8 worker threads, prints the rejoin
// and resync-traffic totals, and — with --csv — dumps the per-node series
// including the rejoin columns. Exits non-zero on a determinism mismatch.
//
// --paper-scale: the 10k-node engine-scale profile. The sigma sweep is
// replaced by two event-driven cells that measure the scheduler itself:
//
//   scheduler  RMW self-paced with the node math dialed to zero (no SGD
//              steps, empty share payloads): almost every cycle is queue
//              discipline, slot pools and accounting — the calendar-queue
//              acceptance metric.
//   learning   D-PSGD with small real payloads and SGD steps: the engine
//              under a realistic (if reduced) protocol load.
//
// Both report wall-clock events/sec over the run phase (model init excluded
// — it is one-time and amortizes over any real experiment), plus the
// engine's scheduler-overhead counters, and are recorded in
// BENCH_engine_scale.json so the perf trajectory is tracked from PR 2
// onward. --baseline FILE compares against a committed json and exits
// non-zero on a >25% events/sec regression (the CI gate).
//
// --mega-scale: the >=100k-node memory-layout showcase (DESIGN.md §10).
// One event-driven D-PSGD raw-sharing cell: MF user rows materialized on
// demand (users outnumber items), arena-packed hosts.
// Exclusive mode: peak RSS is process-wide and monotonic, so the bytes/node
// accounting is only meaningful when the process runs nothing else. Emits
// mega_* keys into BENCH_engine_scale.json; --baseline gates events/sec
// (1.10x floor — the scheduler is expected to hold the 10k-cell rate at
// 100k nodes) and bytes/node (1.10x ceiling), and the 40 KiB/node budget
// is enforced unconditionally. --smoke reduces epochs, never nodes.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "sim/report.hpp"
#include "support/bytes.hpp"

namespace {

/// Pre-PR-2 reference: the binary-heap engine (std::priority_queue +
/// per-event hash maps + per-batch allocations) ran the 10k-node scheduler
/// cell at ~418k events/sec on the calibration machine. Kept as a fixed
/// reference in the json so the speedup story survives the baseline being
/// recalibrated.
constexpr double kPrePrHeapEventsPerSec = 418000.0;

rex::sim::Scenario straggler_scenario(const rex::bench::Options& options,
                                      rex::core::Algorithm algorithm,
                                      double sigma) {
  using namespace rex;
  const bench::Cell cell{algorithm, sim::TopologyKind::kSmallWorld};
  sim::Scenario s =
      bench::one_user_scenario(options, cell, core::SharingMode::kRawData);
  s.epochs = options.epochs_or(30);
  s.dynamics.straggler_probability = 0.3;
  s.dynamics.straggler_lognormal_sigma = sigma;
  s.dynamics.speed_lognormal_sigma = 0.25;
  return s;
}

/// The engine-scale profile: one-user-per-node at 10k nodes (1k at default
/// scale), tiny MF models so node math does not drown the scheduler.
rex::sim::Scenario engine_scale_scenario(const rex::bench::Options& options,
                                         bool scheduler_cell) {
  using namespace rex;
  sim::Scenario s;
  const std::size_t nodes = options.paper_scale ? 10000 : 1000;
  s.label = scheduler_cell ? "scheduler" : "learning";
  s.dataset.n_users = nodes;
  s.dataset.n_items = 100;
  s.dataset.n_ratings = nodes * 10;
  s.dataset.min_ratings_per_user = 5;
  s.dataset.seed = options.seed ^ 0xDA7A;
  s.nodes = 0;  // one node per user
  s.topology = sim::TopologyKind::kSmallWorld;
  s.model = sim::ModelKind::kMf;
  s.mf_embedding_dim = 2;
  s.rex.sharing = core::SharingMode::kRawData;
  if (scheduler_cell) {
    // RMW self-paced, zero math: every node free-runs epochs, so nearly
    // all wall time is the engine itself (one-event batches dominate).
    s.rex.algorithm = core::Algorithm::kRmw;
    s.mf_sgd_steps_per_epoch = 0;
    s.rex.data_points_per_epoch = 0;
  } else {
    s.rex.algorithm = core::Algorithm::kDpsgd;
    s.mf_sgd_steps_per_epoch = 4;
    s.rex.data_points_per_epoch = 4;
  }
  s.epochs = options.epochs_or(10);
  s.seed = options.seed;
  s.threads = options.threads;
  s.engine_mode = sim::EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.25;
  s.dynamics.straggler_probability = 0.3;
  s.dynamics.straggler_lognormal_sigma = 1.0;
  return s;
}

struct ScaleCellResult {
  std::size_t nodes = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t wire_bytes = 0;     // total bytes sent (all messages)
  std::uint64_t wire_messages = 0;  // total messages sent
  double bytes_per_share = 0.0;     // mean wire bytes per sent message
  rex::sim::SimEngine::SchedulerStats stats;
};

ScaleCellResult run_scale_cell(const rex::bench::Options& options,
                               bool scheduler_cell) {
  using namespace rex;
  const sim::Scenario scenario = engine_scale_scenario(options, scheduler_cell);
  std::fprintf(stderr, "  running %-10s cell (%zu nodes) ...",
               scenario.label.c_str(), scenario.dataset.n_users);
  std::fflush(stderr);
  sim::ScenarioInputs inputs;
  sim::Simulator simulator = sim::make_scenario_simulator(scenario, inputs);
  simulator.run_attestation();
  simulator.initialize_nodes();
  const auto start = std::chrono::steady_clock::now();
  simulator.run_epochs(scenario.epochs);
  ScaleCellResult out;
  out.nodes = simulator.node_count();
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  out.events = simulator.engine().events_processed();
  out.events_per_sec = static_cast<double>(out.events) / out.wall_s;
  out.stats = simulator.engine().scheduler_stats();
  out.wire_bytes = simulator.transport().total_bytes_sent();
  for (core::NodeId id = 0; id < simulator.node_count(); ++id) {
    out.wire_messages += simulator.transport().stats(id).messages_sent;
  }
  out.bytes_per_share =
      out.wire_messages > 0
          ? static_cast<double>(out.wire_bytes) /
                static_cast<double>(out.wire_messages)
          : 0.0;
  std::fprintf(stderr, " done (%.1f s wall)\n", out.wall_s);

  if (!options.csv_dir.empty()) {
    std::filesystem::create_directories(options.csv_dir);
    sim::write_csv(simulator.result(), options.csv_dir + "/engine_scale_" +
                                           scenario.label + ".csv");
    sim::write_node_csv(simulator.engine(),
                        options.csv_dir + "/engine_scale_" + scenario.label +
                            "_nodes.csv",
                        options.node_csv_sample_or(1));
  }
  return out;
}

void print_scale_cell(const char* name, const ScaleCellResult& r) {
  std::printf("  %-10s %12llu events  %8.2f s  %12.0f events/sec\n", name,
              static_cast<unsigned long long>(r.events), r.wall_s,
              r.events_per_sec);
  std::printf(
      "             scheduler overhead: %llu batches, queue peak %zu, "
      "%llu resizes, %llu direct searches, slots d/s/e %zu/%zu/%zu\n",
      static_cast<unsigned long long>(r.stats.batches), r.stats.queue_peak,
      static_cast<unsigned long long>(r.stats.queue_resizes),
      static_cast<unsigned long long>(r.stats.direct_searches),
      r.stats.delivery_slots, r.stats.share_slots, r.stats.epoch_slots);
}

/// Emits BENCH_engine_scale.json and applies the --baseline regression
/// gate. Returns the process exit code.
int emit_scale_json(const rex::bench::Options& options,
                    const ScaleCellResult& scheduler,
                    const ScaleCellResult& learning) {
  using namespace rex;
  const std::size_t nodes = scheduler.nodes;
  bench::BenchJson json;
  json.str("bench", "bench_async_stragglers");
  json.str("mode", options.paper_scale ? "paper-scale" : "default");
  json.integer("nodes", nodes);
  json.integer("seed", options.seed);
  json.integer("threads", options.threads);
  json.integer("scheduler_events", scheduler.events);
  json.number("scheduler_wall_s", scheduler.wall_s);
  json.number("scheduler_events_per_sec", scheduler.events_per_sec);
  json.integer("scheduler_queue_peak", scheduler.stats.queue_peak);
  json.integer("scheduler_queue_resizes", scheduler.stats.queue_resizes);
  json.integer("learning_events", learning.events);
  json.number("learning_wall_s", learning.wall_s);
  json.number("learning_events_per_sec", learning.events_per_sec);
  json.integer("learning_wire_bytes", learning.wire_bytes);
  json.integer("learning_wire_messages", learning.wire_messages);
  json.number("learning_bytes_per_share", learning.bytes_per_share);
  json.integer("peak_rss_bytes", bench::peak_rss_bytes());
  if (options.paper_scale) {
    json.number("pre_pr_heap_events_per_sec", kPrePrHeapEventsPerSec);
    json.number("speedup_vs_pre_pr_heap",
                scheduler.events_per_sec / kPrePrHeapEventsPerSec);
  }
  json.write("BENCH_engine_scale.json");

  if (options.baseline_path.empty()) return 0;
  double baseline_nodes = 0.0;
  if (bench::read_bench_json_number(options.baseline_path, "nodes",
                                    &baseline_nodes) &&
      static_cast<std::size_t>(baseline_nodes) != nodes) {
    std::fprintf(stderr,
                 "baseline %s is a %.0f-node profile; skipping the gate for "
                 "this %zu-node run\n",
                 options.baseline_path.c_str(), baseline_nodes, nodes);
    return 0;
  }
  std::printf("\n");
  bench::BaselineGate gate(options.baseline_path);
  // Throughput floors tolerate 25% (wall-clock noise on shared runners);
  // bytes-per-share is deterministic, so a tight 10% ceiling catches
  // header/codec bloat outright. Cells absent from older baselines skip
  // with a note so pre-extension baselines keep working.
  gate.require_floor("scheduler_events_per_sec", scheduler.events_per_sec,
                     0.75);
  gate.require_floor("learning_events_per_sec", learning.events_per_sec,
                     0.75);
  gate.require_ceiling("learning_bytes_per_share", learning.bytes_per_share,
                       1.10);
  return gate.exit_code();
}

// ===== --mega-scale: >=100k-node memory-layout showcase =====

/// Per-node memory budget (DESIGN.md §10): the whole 100k-node box must
/// stay under 40 KiB of peak RSS per node.
constexpr double kMegaBytesPerNodeBudget = 40.0 * 1024.0;

/// The mega cell: 100k one-user nodes, event-driven D-PSGD with raw-data
/// sharing (model shares would serialize the full dense user tensor per
/// message — raw shares keep the wire and the user-row store O(seen)).
rex::sim::Scenario mega_scale_scenario(const rex::bench::Options& options) {
  using namespace rex;
  sim::Scenario s;
  const std::size_t nodes = 100000;
  s.label = "mega";
  s.dataset.n_users = nodes;
  s.dataset.n_items = 100;
  s.dataset.n_ratings = nodes * 10;
  s.dataset.min_ratings_per_user = 5;
  s.dataset.seed = options.seed ^ 0xDA7A;
  s.nodes = 0;  // one node per user
  s.topology = sim::TopologyKind::kSmallWorld;
  s.model = sim::ModelKind::kMf;
  s.mf_embedding_dim = 2;
  s.mf_sgd_steps_per_epoch = 4;
  s.rex.algorithm = core::Algorithm::kDpsgd;
  s.rex.sharing = core::SharingMode::kRawData;
  s.rex.data_points_per_epoch = 4;
  s.epochs = options.epochs_or(options.smoke ? 2 : 6);
  s.seed = options.seed;
  s.threads = options.threads;
  s.engine_mode = sim::EngineMode::kEventDriven;
  s.dynamics.speed_lognormal_sigma = 0.25;
  s.dynamics.straggler_probability = 0.3;
  s.dynamics.straggler_lognormal_sigma = 1.0;
  return s;
}

int run_mega_showcase(const rex::bench::Options& options) {
  using namespace rex;
  const sim::Scenario scenario = mega_scale_scenario(options);
  std::fprintf(stderr, "  running %-10s cell (%zu nodes) ...",
               scenario.label.c_str(), scenario.dataset.n_users);
  std::fflush(stderr);
  sim::ScenarioInputs inputs;
  sim::Simulator simulator = sim::make_scenario_simulator(scenario, inputs);
  simulator.run_attestation();
  simulator.initialize_nodes();
  const auto start = std::chrono::steady_clock::now();
  simulator.run_epochs(scenario.epochs);
  ScaleCellResult r;
  r.nodes = simulator.node_count();
  r.wall_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  r.events = simulator.engine().events_processed();
  r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
  r.stats = simulator.engine().scheduler_stats();
  r.wire_bytes = simulator.transport().total_bytes_sent();
  std::fprintf(stderr, " done (%.1f s wall)\n", r.wall_s);

  const std::size_t rss = bench::peak_rss_bytes();
  const double bytes_per_node =
      static_cast<double>(rss) / static_cast<double>(r.nodes);

  std::printf("mega-scale cell (%zu nodes, D-PSGD raw shares)\n", r.nodes);
  print_scale_cell("mega", r);
  std::printf("  peak RSS %s total, %s per node (budget %s)\n",
              rex::format_bytes(static_cast<double>(rss)).c_str(),
              rex::format_bytes(bytes_per_node).c_str(),
              rex::format_bytes(kMegaBytesPerNodeBudget).c_str());

  if (!options.csv_dir.empty()) {
    std::filesystem::create_directories(options.csv_dir);
    sim::write_csv(simulator.result(), options.csv_dir + "/mega_scale.csv");
    // O(active) reporting: coarse deterministic stride by default; the
    // 100k-row full dump is opt-in via --node-csv-sample 1.
    sim::write_node_csv(simulator.engine(),
                        options.csv_dir + "/mega_scale_nodes.csv",
                        options.node_csv_sample_or(1000));
  }

  bench::BenchJson json;
  json.str("bench", "bench_async_stragglers");
  json.str("mode", options.smoke ? "mega-scale-smoke" : "mega-scale");
  json.integer("mega_nodes", r.nodes);
  json.integer("seed", options.seed);
  json.integer("threads", options.threads);
  json.integer("epochs", scenario.epochs);
  json.integer("mega_events", r.events);
  json.number("mega_wall_s", r.wall_s);
  json.number("mega_events_per_sec", r.events_per_sec);
  json.integer("mega_queue_peak", r.stats.queue_peak);
  json.integer("mega_wire_bytes", r.wire_bytes);
  json.integer("mega_peak_rss_bytes", rss);
  json.number("mega_bytes_per_node", bytes_per_node);
  json.write("BENCH_engine_scale.json");

  // The 40 KiB/node budget holds with or without a baseline: it is the
  // acceptance bar for the memory layout itself, not a regression check.
  const bool budget_ok = bytes_per_node <= kMegaBytesPerNodeBudget;
  std::printf("  bytes/node budget (<= %.0f KiB): %s\n",
              kMegaBytesPerNodeBudget / 1024.0, budget_ok ? "PASS" : "FAIL");

  int exit_code = budget_ok ? 0 : 6;
  if (!options.baseline_path.empty()) {
    std::printf("\n");
    bench::BaselineGate gate(options.baseline_path);
    // Tight 1.10x floor (vs the 0.75 of the 10k cells): the committed mega
    // baseline is itself certified against the 10k-cell rate, so holding
    // within 10% of it keeps the "100k flies at the 10k rate" claim alive.
    gate.require_floor("mega_events_per_sec", r.events_per_sec, 1.0 / 1.10);
    gate.require_ceiling("mega_bytes_per_node", bytes_per_node, 1.10);
    double ten_k_rate = 0.0;
    if (bench::read_bench_json_number(options.baseline_path,
                                      "learning_events_per_sec",
                                      &ten_k_rate) &&
        ten_k_rate > 0.0) {
      std::printf("  vs committed 10k learning cell: %.2fx (%.0f vs %.0f "
                  "events/sec)\n",
                  r.events_per_sec / ten_k_rate, r.events_per_sec, ten_k_rate);
    }
    if (!gate.all_passed()) exit_code = gate.exit_code();
  }
  return exit_code;
}

// ===== --wan: heterogeneous-link showcase =====

/// Exact equality across thread counts: any drift means the link model or
/// the queueing leaked scheduling order into the metrics.
bool results_identical(const rex::sim::ExperimentResult& a,
                       const rex::sim::ExperimentResult& b) {
  if (a.rounds.size() != b.rounds.size()) return false;
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    const rex::sim::RoundRecord& x = a.rounds[i];
    const rex::sim::RoundRecord& y = b.rounds[i];
    if (x.mean_rmse != y.mean_rmse || x.min_rmse != y.min_rmse ||
        x.max_rmse != y.max_rmse ||
        x.cumulative_time.seconds != y.cumulative_time.seconds ||
        x.mean_bytes_in_out != y.mean_bytes_in_out ||
        x.nodes_reporting != y.nodes_reporting) {
      return false;
    }
  }
  return true;
}

int run_wan_showcase(const rex::bench::Options& options) {
  using namespace rex;
  sim::Scenario scenario = engine_scale_scenario(options, false);
  scenario.label = "wan-" + options.wan_profile;
  scenario.costs.wan = sim::make_wan_profile(options.wan_profile);

  // Homogeneous reference first: same scenario, LAN links.
  sim::Scenario lan = scenario;
  lan.costs.wan = sim::LinkParams{};
  lan.label = "homogeneous";
  sim::ScenarioInputs lan_inputs;
  sim::Simulator lan_sim = sim::make_scenario_simulator(lan, lan_inputs);
  lan_sim.run(lan.epochs);
  const double lan_s = lan_sim.engine().now().seconds;

  // WAN run across 1/2/8 worker threads; all metrics must agree exactly.
  bool deterministic = true;
  double wan_s = 0.0;
  std::uint64_t min_epochs = ~std::uint64_t{0}, max_epochs = 0;
  sim::ExperimentResult reference;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    sim::Scenario run = scenario;
    run.threads = threads;
    sim::ScenarioInputs inputs;
    sim::Simulator simulator = sim::make_scenario_simulator(run, inputs);
    std::fprintf(stderr, "  running %-10s (%zu nodes, %zu threads) ...",
                 scenario.label.c_str(), simulator.node_count(), threads);
    std::fflush(stderr);
    simulator.run(run.epochs);
    std::fprintf(stderr, " done\n");
    if (threads == 1) {
      reference = simulator.result();
      wan_s = simulator.engine().now().seconds;
      for (core::NodeId id = 0; id < simulator.node_count(); ++id) {
        const auto& status = simulator.engine().node_status(id);
        min_epochs = std::min(min_epochs, status.epochs_done);
        max_epochs = std::max(max_epochs, status.epochs_done);
      }
      const sim::LinkModel& links = simulator.link_model();
      const sim::LinkModel::Stats lat = links.latency_stats();
      const sim::LinkModel::Stats bw = links.bandwidth_stats();
      std::printf("profile %-4s  %zu regions, %zu edges\n",
                  options.wan_profile.c_str(), links.params().regions,
                  links.edge_count());
      std::printf("  edge latency    %8.2f / %8.2f / %8.2f ms (min/mean/max)\n",
                  lat.min * 1e3, lat.mean * 1e3, lat.max * 1e3);
      std::printf("  edge bandwidth  %8.2f / %8.2f / %8.2f MB/s\n",
                  bw.min / 1e6, bw.mean / 1e6, bw.max / 1e6);
      if (!options.csv_dir.empty()) {
        std::filesystem::create_directories(options.csv_dir);
        const std::string stem = options.csv_dir + "/wan_" +
                                 options.wan_profile;
        sim::write_csv(reference, stem + ".csv");
        sim::write_node_csv(simulator.engine(), stem + "_nodes.csv",
                            options.node_csv_sample_or(1));
        sim::write_edge_csv(simulator.engine(), stem + "_edges.csv");
      }
    } else if (!results_identical(reference, simulator.result())) {
      deterministic = false;
      std::printf("  DETERMINISM MISMATCH at %zu threads\n", threads);
    }
  }

  std::printf("\n  completion time: homogeneous %s, %s %s (%.2fx)\n",
              bench::format_time(lan_s).c_str(), scenario.label.c_str(),
              bench::format_time(wan_s).c_str(), wan_s / lan_s);
  std::printf("  epochs min..max (wan): %llu..%llu\n",
              static_cast<unsigned long long>(min_epochs),
              static_cast<unsigned long long>(max_epochs));
  std::printf("  thread determinism (1/2/8): %s\n",
              deterministic ? "PASS" : "FAIL");

  // ===== Convergence-time-vs-bytes: compression on the WAN wire =====
  //
  // Same WAN scenario, wire codecs toggled; the LinkModel's bandwidth
  // queueing pays the actual (compressed) tx sizes, so smaller shares
  // finish the same learning schedule in less simulated time. Raw-share
  // compression is lossless (delta ids + half-star codes), so its
  // per-epoch RMSE trajectory must match the fixed encoding exactly; q8
  // model quantization is lossy, with the RMSE budget asserted here.
  struct WireCell {
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
    double bytes_per_share = 0.0;
    double completion_s = 0.0;
    double rmse = 0.0;
    std::uint64_t bytes_saved = 0;
  };
  const auto run_wire_cell = [&](const char* label, core::SharingMode sharing,
                                 bool compressed) {
    sim::Scenario run = scenario;
    run.threads = 1;
    run.label = label;
    run.rex.sharing = sharing;
    run.rex.compress_raw_data =
        compressed && sharing == core::SharingMode::kRawData;
    run.rex.quantize_model_shares =
        compressed && sharing == core::SharingMode::kModel;
    sim::ScenarioInputs inputs;
    sim::Simulator simulator = sim::make_scenario_simulator(run, inputs);
    std::fprintf(stderr, "  running %-14s (%zu nodes) ...", label,
                 simulator.node_count());
    std::fflush(stderr);
    simulator.run(run.epochs);
    std::fprintf(stderr, " done\n");
    WireCell cell;
    cell.bytes = simulator.transport().total_bytes_sent();
    for (core::NodeId id = 0; id < simulator.node_count(); ++id) {
      cell.messages += simulator.transport().stats(id).messages_sent;
    }
    cell.bytes_per_share =
        cell.messages > 0 ? static_cast<double>(cell.bytes) /
                                static_cast<double>(cell.messages)
                          : 0.0;
    cell.completion_s = simulator.engine().now().seconds;
    cell.rmse = simulator.result().final_rmse();
    for (const sim::RoundRecord& r : simulator.result().rounds) {
      cell.bytes_saved += r.bytes_saved_compression;
    }
    return cell;
  };

  const WireCell raw_fixed =
      run_wire_cell("raw-fixed", core::SharingMode::kRawData, false);
  const WireCell raw_packed =
      run_wire_cell("raw-compressed", core::SharingMode::kRawData, true);
  const WireCell model_f32 =
      run_wire_cell("model-f32", core::SharingMode::kModel, false);
  const WireCell model_q8 =
      run_wire_cell("model-q8", core::SharingMode::kModel, true);

  const auto print_cell = [](const char* name, const WireCell& c) {
    std::printf("  %-14s %10s total  %7.1f B/share  %10s sim  rmse %.4f\n",
                name, rex::format_bytes(static_cast<double>(c.bytes)).c_str(),
                c.bytes_per_share, bench::format_time(c.completion_s).c_str(),
                c.rmse);
  };
  std::printf("\nwire compression (same schedule, LinkModel pays tx size)\n");
  print_cell("raw-fixed", raw_fixed);
  print_cell("raw-compressed", raw_packed);
  print_cell("model-f32", model_f32);
  print_cell("model-q8", model_q8);

  const double raw_ratio =
      raw_packed.bytes_per_share > 0.0
          ? raw_fixed.bytes_per_share / raw_packed.bytes_per_share
          : 0.0;
  const double model_ratio =
      model_q8.bytes_per_share > 0.0
          ? model_f32.bytes_per_share / model_q8.bytes_per_share
          : 0.0;
  // Accuracy budgets (documented in DESIGN.md §7): the raw codec is
  // value-lossless but emits each batch in sorted order, so the receiver's
  // store append order — and with it the SGD sampling sequence — shifts;
  // the trajectory is statistically equivalent, not bit-identical. q8
  // model shares quantize every merge input, so their budget is one-sided:
  // quantization may not cost more than kQ8RmseBudget of final RMSE
  // (landing better than f32 is fine). final_rmse() reads the last record
  // every node reported. On the geo profile at seed 1 the drifts measured
  // 0.000019 (raw) and +0.000001 (q8) at 5 epochs, 0.000215 and +0.000005
  // at the default 10; both budgets keep their margin for other seeds,
  // profiles and horizons.
  constexpr double kRawRmseBudget = 0.02;
  constexpr double kQ8RmseBudget = 0.10;
  const double raw_drift = std::fabs(raw_packed.rmse - raw_fixed.rmse);
  const double q8_drift = model_q8.rmse - model_f32.rmse;
  const bool raw_ok = raw_ratio >= 2.0 && raw_drift <= kRawRmseBudget;
  const bool q8_ok = q8_drift <= kQ8RmseBudget;
  std::printf("  raw share reduction  %.2fx (gate: >= 2x), rmse drift %.6f "
              "(budget %.2f): %s\n",
              raw_ratio, raw_drift, kRawRmseBudget, raw_ok ? "PASS" : "FAIL");
  std::printf("  model share reduction %.2fx, rmse drift %+.6f (budget "
              "+%.2f one-sided): %s\n",
              model_ratio, q8_drift, kQ8RmseBudget, q8_ok ? "PASS" : "FAIL");
  std::printf("  compressed runs finished %.2fx / %.2fx sooner (raw/model)\n",
              raw_packed.completion_s > 0.0
                  ? raw_fixed.completion_s / raw_packed.completion_s
                  : 0.0,
              model_q8.completion_s > 0.0
                  ? model_f32.completion_s / model_q8.completion_s
                  : 0.0);

  if (!deterministic) return 4;
  return raw_ok && q8_ok ? 0 : 5;
}

// ===== --churn: churn/rejoin showcase =====

int run_churn_showcase(const rex::bench::Options& options) {
  using namespace rex;
  // RMW over the engine-scale node count: self-paced timers keep the run
  // alive through outages, so every rejoin path (re-attestation hooks,
  // resync pulls, watchdog) is exercised at scale.
  sim::Scenario scenario = engine_scale_scenario(options, false);
  scenario.label = "churn";
  scenario.rex.algorithm = core::Algorithm::kRmw;
  scenario.dynamics.churn_probability = 0.2;
  scenario.dynamics.churn_downtime_s = 0.002;

  bool deterministic = true;
  sim::ExperimentResult reference;
  for (const std::size_t threads : {1ul, 2ul, 8ul}) {
    sim::Scenario run = scenario;
    run.threads = threads;
    sim::ScenarioInputs inputs;
    sim::Simulator simulator = sim::make_scenario_simulator(run, inputs);
    std::fprintf(stderr, "  running churn     (%zu nodes, %zu threads) ...",
                 simulator.node_count(), threads);
    std::fflush(stderr);
    simulator.run(run.epochs);
    std::fprintf(stderr, " done\n");
    if (threads == 1) {
      reference = simulator.result();
      std::uint64_t rejoins = 0, completed = 0, timeouts = 0, elided = 0,
                    dropped = 0;
      double latency_sum = 0.0;
      for (core::NodeId id = 0; id < simulator.node_count(); ++id) {
        const auto& status = simulator.engine().node_status(id);
        rejoins += status.rejoins;
        completed += status.rejoins_completed;
        timeouts += status.rejoin_timeouts;
        elided += status.deliveries_elided;
        dropped += status.deliveries_dropped;
        latency_sum += status.rejoin_latency_sum_s;
      }
      const auto& resync = simulator.engine().resync_totals();
      std::printf("churn/rejoin (%zu nodes, p=%.2f, downtime %.1f ms)\n",
                  simulator.node_count(),
                  scenario.dynamics.churn_probability,
                  scenario.dynamics.churn_downtime_s * 1e3);
      std::printf("  rejoins %llu (%llu completed, %llu via watchdog), mean "
                  "rejoin latency %.3f ms\n",
                  static_cast<unsigned long long>(rejoins),
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(timeouts),
                  completed > 0
                      ? latency_sum / static_cast<double>(completed) * 1e3
                      : 0.0);
      std::printf("  deliveries: %llu dropped in flight, %llu elided\n",
                  static_cast<unsigned long long>(dropped),
                  static_cast<unsigned long long>(elided));
      // Wire totals of the whole resync plane (pull requests + model
      // replies), not just model blobs.
      std::printf("  resync traffic: %s released, %s delivered, %s lost\n",
                  rex::format_bytes(
                      static_cast<double>(resync.tx_bytes)).c_str(),
                  rex::format_bytes(
                      static_cast<double>(resync.rx_bytes)).c_str(),
                  rex::format_bytes(
                      static_cast<double>(resync.dropped_bytes)).c_str());
      if (!options.csv_dir.empty()) {
        std::filesystem::create_directories(options.csv_dir);
        sim::write_csv(reference, options.csv_dir + "/churn.csv");
        sim::write_node_csv(simulator.engine(),
                            options.csv_dir + "/churn_nodes.csv",
                            options.node_csv_sample_or(1));
      }
    } else if (!results_identical(reference, simulator.result())) {
      deterministic = false;
      std::printf("  DETERMINISM MISMATCH at %zu threads\n", threads);
    }
  }
  std::printf("  thread determinism (1/2/8): %s\n",
              deterministic ? "PASS" : "FAIL");
  return deterministic ? 0 : 4;
}

struct CellResult {
  double barrier_s = 0.0;
  double event_s = 0.0;
  std::uint64_t min_epochs = 0;
  std::uint64_t max_epochs = 0;
};

CellResult run_cell(const rex::sim::Scenario& scenario) {
  using namespace rex;
  CellResult out;

  sim::Scenario barrier = scenario;
  barrier.engine_mode = sim::EngineMode::kBarrier;
  out.barrier_s = bench::run_logged(barrier).total_time().seconds;

  sim::Scenario event = scenario;
  event.engine_mode = sim::EngineMode::kEventDriven;
  event.label = "event-driven";
  sim::ScenarioInputs inputs;
  sim::Simulator simulator = sim::make_scenario_simulator(event, inputs);
  simulator.run(event.epochs);
  out.event_s = simulator.engine().now().seconds;
  out.min_epochs = ~std::uint64_t{0};
  for (core::NodeId id = 0; id < simulator.node_count(); ++id) {
    const auto& status = simulator.engine().node_status(id);
    out.min_epochs = std::min(out.min_epochs, status.epochs_done);
    out.max_epochs = std::max(out.max_epochs, status.epochs_done);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rex;
  const bench::Options options = bench::parse_options(
      argc, argv, "bench_async_stragglers",
      "Barrier vs event-driven completion time under log-normal stragglers; "
      "--paper-scale runs the 10k-node engine-scale profile; --wan PROFILE "
      "runs the heterogeneous-link showcase");

  if (options.mega_scale) {
    bench::print_header(
        "Mega scale — 100k-node event-driven profile", options);
    return run_mega_showcase(options);
  }

  if (!options.wan_profile.empty()) {
    bench::print_header(
        "WAN links — per-edge latency/bandwidth + sender queueing", options);
    return run_wan_showcase(options);
  }

  if (options.churn) {
    bench::print_header(
        "Churn — rejoin protocol (re-attestation + state resync)", options);
    return run_churn_showcase(options);
  }

  if (options.paper_scale) {
    bench::print_header("Engine scale — 10k-node event-driven profile",
                        options);
    const ScaleCellResult scheduler = run_scale_cell(options, true);
    const ScaleCellResult learning = run_scale_cell(options, false);
    std::printf("\nwall-clock engine throughput (run phase, init excluded)\n");
    print_scale_cell("scheduler", scheduler);
    print_scale_cell("learning", learning);
    std::printf(
        "\npre-PR-2 heap engine reference: ~%.0f events/sec on the scheduler "
        "cell\n(calibration machine), i.e. this build runs it at %.2fx.\n",
        kPrePrHeapEventsPerSec,
        scheduler.events_per_sec / kPrePrHeapEventsPerSec);
    return emit_scale_json(options, scheduler, learning);
  }

  bench::print_header("Stragglers — barrier vs event-driven engine", options);

  const double sigmas[] = {0.0, 0.5, 1.0, 1.5};
  for (const core::Algorithm algorithm :
       {core::Algorithm::kRmw, core::Algorithm::kDpsgd}) {
    std::printf("\n%s, SW, REX (straggler probability 30%%, speed sigma"
                " 0.25)\n",
                core::to_string(algorithm));
    std::printf("  %-14s %-14s %-14s %-9s %s\n", "straggler σ", "barrier",
                "event-driven", "speedup", "epochs min..max (event)");
    for (const double sigma : sigmas) {
      const sim::Scenario scenario =
          straggler_scenario(options, algorithm, sigma);
      const CellResult r = run_cell(scenario);
      std::printf("  %-14.2f %-14s %-14s %-9.2f %llu..%llu\n", sigma,
                  bench::format_time(r.barrier_s).c_str(),
                  bench::format_time(r.event_s).c_str(),
                  r.barrier_s / r.event_s,
                  static_cast<unsigned long long>(r.min_epochs),
                  static_cast<unsigned long long>(r.max_epochs));
    }
  }

  std::printf(
      "\nShape: the barrier pays the max of N straggler draws every round,"
      " so its\ncompletion time grows with σ much faster than the"
      " event-driven engine's,\nand event-driven fast nodes overshoot the"
      " epoch target (min < max).\n");

  // Default-scale engine profile: keeps BENCH_engine_scale.json tracking
  // the perf trajectory even on quick runs.
  std::printf("\nengine-scale profile (default scale, 1000 nodes)\n");
  const ScaleCellResult scheduler = run_scale_cell(options, true);
  const ScaleCellResult learning = run_scale_cell(options, false);
  print_scale_cell("scheduler", scheduler);
  print_scale_cell("learning", learning);
  return emit_scale_json(options, scheduler, learning);
}
