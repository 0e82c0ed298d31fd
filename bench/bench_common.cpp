#include "bench_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "serialize/json.hpp"
#include "support/error.hpp"

namespace rex::bench {

namespace {

[[noreturn]] void usage_and_exit(const std::string& bench_name,
                                 const std::string& description,
                                 const std::vector<std::string>& names,
                                 int exit_code) {
  std::printf("%s — %s\n\n", bench_name.c_str(), description.c_str());
  if (!names.empty()) {
    std::printf("Usage: %s [flags] [name...]   (no names = all)\nNames:",
                bench_name.c_str());
    for (const std::string& name : names) std::printf(" %s", name.c_str());
    std::printf("\n\n");
  }
  std::printf(
      "Flags:\n"
      "  --paper-scale   full paper scale (610 nodes / 15k users); slow\n"
      "  --epochs N      override the epoch count\n"
      "  --seed S        experiment seed (default 1)\n"
      "  --csv DIR       dump per-epoch series as CSV into DIR\n"
      "  --threads N     simulator worker threads (default: hardware)\n"
      "  --baseline F    compare BENCH_*.json metrics against F (CI gate)\n"
      "  --wan PROFILE   per-edge WAN links: lan | wan | geo\n"
      "  --churn         churn/rejoin showcase (event engine, rejoin protocol)\n"
      "  --query-load R  per-node open-loop query rate in simulated Hz\n"
      "  --smoke         reduced CI smoke scale (seconds, not minutes)\n"
      "  --mega-scale    >=100k-node event-driven cell (bench_async_stragglers)\n"
      "  --node-csv-sample N  write every Nth node in per-node CSVs\n"
      "  --help          this text\n");
  std::exit(exit_code);
}

/// Reduced default: 128 of the paper's 610 one-user nodes. Keeps sparsity
/// and distribution shape (data::scaled_config) at ~5x less work.
constexpr double kDefaultOneUserScale = 128.0 / 610.0;

}  // namespace

Options parse_options(int argc, char** argv, const std::string& bench_name,
                      const std::string& description,
                      const std::vector<std::string>& names) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", arg.c_str());
        usage_and_exit(bench_name, description, names, 2);
      }
      return argv[++i];
    };
    if (arg == "--paper-scale") {
      options.paper_scale = true;
    } else if (arg == "--epochs") {
      options.epochs = static_cast<std::size_t>(std::strtoull(
          next_value(), nullptr, 10));
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next_value(), nullptr, 10);
    } else if (arg == "--csv") {
      options.csv_dir = next_value();
    } else if (arg == "--threads") {
      options.threads = static_cast<std::size_t>(std::strtoull(
          next_value(), nullptr, 10));
    } else if (arg == "--baseline") {
      options.baseline_path = next_value();
    } else if (arg == "--wan") {
      options.wan_profile = next_value();
    } else if (arg == "--churn") {
      options.churn = true;
    } else if (arg == "--query-load") {
      options.query_load = std::strtod(next_value(), nullptr);
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--mega-scale") {
      options.mega_scale = true;
    } else if (arg == "--node-csv-sample") {
      options.node_csv_sample = static_cast<std::size_t>(
          std::strtoull(next_value(), nullptr, 10));
      // An explicit 0 is nonsense; treat it as a full dump.
      if (options.node_csv_sample == 0) options.node_csv_sample = 1;
    } else if (arg == "--help" || arg == "-h") {
      usage_and_exit(bench_name, description, names, 0);
    } else if (std::find(names.begin(), names.end(), arg) != names.end()) {
      options.names.push_back(arg);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage_and_exit(bench_name, description, names, 2);
    }
  }
  return options;
}

std::string Cell::name() const {
  std::string label = core::to_string(algorithm);
  label += ", ";
  label += sim::to_string(topology);
  return label;
}

const std::vector<Cell>& standard_cells() {
  static const std::vector<Cell> cells = {
      {core::Algorithm::kRmw, sim::TopologyKind::kSmallWorld},
      {core::Algorithm::kRmw, sim::TopologyKind::kErdosRenyi},
      {core::Algorithm::kDpsgd, sim::TopologyKind::kSmallWorld},
      {core::Algorithm::kDpsgd, sim::TopologyKind::kErdosRenyi},
  };
  return cells;
}

sim::Scenario one_user_scenario(const Options& options, const Cell& cell,
                                core::SharingMode sharing) {
  sim::Scenario scenario;
  scenario.dataset = data::movielens_latest_config();
  if (!options.paper_scale) {
    // Reduce users/ratings but keep the full item catalog: the MF model is
    // item-dominated ((n_items + n_users) * k parameters), and the
    // model-to-raw-data size ratio is the quantity behind the paper's
    // 2-orders-of-magnitude traffic gap (Fig 2).
    scenario.dataset.n_users = static_cast<std::size_t>(
        610 * kDefaultOneUserScale);
    scenario.dataset.n_ratings = static_cast<std::size_t>(
        100000 * kDefaultOneUserScale);
  }
  scenario.dataset.seed = options.seed ^ 0xDA7A;
  scenario.topology = cell.topology;
  scenario.nodes = 0;  // one node per user
  scenario.model = sim::ModelKind::kMf;
  scenario.rex.algorithm = cell.algorithm;
  scenario.rex.sharing = sharing;
  scenario.rex.data_points_per_epoch = 300;  // §IV-A3a
  if (!options.paper_scale) {
    // Preserve the paper's ER mean degree (0.05 * 609 ~ 30.45 at 610
    // nodes): the degree is what drives the D-PSGD ER traffic blow-up.
    const double n = static_cast<double>(scenario.dataset.n_users);
    scenario.er_edge_probability = std::min(0.4, 30.45 / (n - 1.0));
  }
  scenario.epochs = options.epochs_or(100);
  scenario.seed = options.seed;
  scenario.threads = options.threads;
  return scenario;
}

sim::Scenario multi_user_scenario(const Options& options, const Cell& cell,
                                  core::SharingMode sharing) {
  sim::Scenario scenario = one_user_scenario(options, cell, sharing);
  // §IV-B-b: the full 610 users partitioned over 50 nodes (cheap enough to
  // run unreduced even by default).
  scenario.dataset = data::movielens_latest_config();
  scenario.dataset.seed = options.seed ^ 0xDA7A;
  scenario.nodes = 50;
  // The paper keeps p = 5% at 50 nodes, where ER is much sparser than SW
  // (mean degree ~2.5) — no degree-preserving override here.
  scenario.er_edge_probability = 0.05;
  scenario.epochs = options.epochs_or(100);
  return scenario;
}

sim::Scenario dnn_scenario(const Options& options,
                           sim::TopologyKind topology,
                           core::SharingMode sharing) {
  sim::Scenario scenario;
  scenario.dataset =
      options.paper_scale
          ? data::movielens_latest_config()
          : data::scaled_config(data::movielens_latest_config(), 0.4);
  scenario.dataset.seed = options.seed ^ 0xDA7A;
  scenario.topology = topology;
  scenario.nodes = options.paper_scale ? 50 : 24;
  // p = 5% at the paper's 50 nodes; preserve that mean degree (~2.45, much
  // sparser than SW — the driver of Fig 5's ER-vs-SW difference) when the
  // default scale reduces the node count.
  scenario.er_edge_probability =
      options.paper_scale
          ? 0.05
          : std::min(0.4, 0.05 * 49.0 /
                              (static_cast<double>(scenario.nodes) - 1.0));
  scenario.model = sim::ModelKind::kDnn;
  scenario.rex.algorithm = core::Algorithm::kDpsgd;  // §IV-B-b: D-PSGD
  scenario.rex.sharing = sharing;
  scenario.rex.data_points_per_epoch = 40;  // §IV-A3b
  scenario.epochs = options.epochs_or(options.paper_scale ? 80 : 60);
  scenario.seed = options.seed;
  scenario.threads = options.threads;
  return scenario;
}

sim::Scenario sgx_scenario(const Options& options, core::Algorithm algorithm,
                           core::SharingMode sharing, bool secure,
                           bool large_dataset) {
  sim::Scenario scenario;
  scenario.dataset = large_dataset ? data::movielens_25m_capped_config()
                                   : data::movielens_latest_config();
  scenario.dataset.seed = options.seed ^ 0xDA7A;
  scenario.topology = sim::TopologyKind::kFullyConnected;
  scenario.nodes = 8;       // §IV-C: 8 processes, 28 pair-wise connections
  scenario.platforms = 4;   // on 4 SGX servers
  scenario.model = sim::ModelKind::kMf;
  scenario.rex.algorithm = algorithm;
  scenario.rex.sharing = sharing;
  scenario.rex.data_points_per_epoch = 300;
  scenario.rex.security = secure ? enclave::SecurityMode::kSgxSimulated
                                 : enclave::SecurityMode::kNative;
  if (large_dataset) {
    // The paper picks the 15k-user cap precisely so that resident enclave
    // memory overcommits the 93.5 MiB EPC (§IV-D). Our accounting counts
    // only algorithmic state (model + merge scratch + store + index), which
    // peaks well below the byte volumes a real process accrues (Eigen
    // buffers, allocator slack, code). To reproduce the same *occupancy
    // regime*, the simulated EPC budget is set so the D-PSGD MS run lands
    // ~1.4x beyond it and REX stays below it, mirroring Fig 7 / Table IV
    // (204 MiB vs 93.5 MiB, and 45.9-53.9 MiB for REX). See README.md
    // "Reproducing the paper".
    scenario.rex.epc.available_bytes = 16ull << 20;
  }
  scenario.epochs = options.epochs_or(60);
  scenario.seed = options.seed;
  scenario.threads = options.threads;
  return scenario;
}

sim::ExperimentResult run_logged(const sim::Scenario& scenario,
                                 std::size_t centralized_epochs) {
  const std::string label =
      scenario.label.empty() ? sim::scenario_label(scenario) : scenario.label;
  std::fprintf(stderr, "  running %-28s ...", label.c_str());
  std::fflush(stderr);
  const auto start = std::chrono::steady_clock::now();
  sim::ExperimentResult result =
      centralized_epochs > 0
          ? sim::run_scenario_centralized(scenario, centralized_epochs)
          : sim::run_scenario(scenario);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  std::fprintf(stderr, " done (%.1f s wall, final RMSE %.3f)\n", wall,
               result.final_rmse());
  return result;
}

void maybe_csv(const Options& options, const sim::ExperimentResult& result,
               const std::string& file) {
  if (options.csv_dir.empty()) return;
  std::filesystem::create_directories(options.csv_dir);
  sim::write_csv(result, options.csv_dir + "/" + file + ".csv");
}

void print_header(const std::string& title, const Options& options) {
  std::printf("==============================================================="
              "=\n%s\n", title.c_str());
  std::printf("scale: %s   seed: %llu\n",
              options.paper_scale ? "paper (full)" : "default (reduced)",
              static_cast<unsigned long long>(options.seed));
  std::printf("==============================================================="
              "=\n");
}

void BenchJson::number(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  fields_.emplace_back(key, buffer);
}

void BenchJson::integer(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void BenchJson::str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + value + "\"");
}

void BenchJson::write(const std::string& path) const {
  std::ofstream out(path);
  REX_REQUIRE(out.good(), "cannot open bench json path: " + path);
  out << "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out << "  \"" << fields_[i].first << "\": " << fields_[i].second
        << (i + 1 < fields_.size() ? ",\n" : "\n");
  }
  out << "}\n";
  std::fprintf(stderr, "  wrote %s\n", path.c_str());
}

bool read_bench_json_number(const std::string& path, const std::string& key,
                            double* value) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  try {
    const serialize::Json parsed = serialize::Json::parse(text);
    if (!parsed.contains(key)) return false;
    *value = parsed.at(key).as_number();
    return true;
  } catch (const Error&) {
    return false;
  }
}

BaselineGate::BaselineGate(std::string baseline_path)
    : baseline_path_(std::move(baseline_path)) {}

bool BaselineGate::check(const std::string& key, double measured,
                         double factor, bool is_floor) {
  double baseline = 0.0;
  if (!read_bench_json_number(baseline_path_, key, &baseline)) {
    std::printf("  baseline gate: no '%s' in %s — skipping that cell\n",
                key.c_str(), baseline_path_.c_str());
    return true;
  }
  const double bound = baseline * factor;
  const bool pass = is_floor ? measured >= bound : measured <= bound;
  const double ratio = baseline != 0.0 ? measured / baseline : 0.0;
  if (pass) {
    std::printf("  baseline gate: %-28s PASS  %.6g vs baseline %.6g "
                "(ratio %.3f, %s %.2fx)\n",
                key.c_str(), measured, baseline, ratio,
                is_floor ? "floor" : "ceiling", factor);
  } else {
    ++failures_;
    std::printf("  baseline gate: %-28s FAIL  %.6g vs baseline %.6g "
                "(ratio %.3f, %s %.2fx)\n",
                key.c_str(), measured, baseline, ratio,
                is_floor ? "floor" : "ceiling", factor);
  }
  return pass;
}

bool BaselineGate::require_floor(const std::string& key, double measured,
                                 double floor_factor) {
  return check(key, measured, floor_factor, /*is_floor=*/true);
}

bool BaselineGate::require_ceiling(const std::string& key, double measured,
                                   double ceiling_factor) {
  return check(key, measured, ceiling_factor, /*is_floor=*/false);
}

std::size_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

std::string format_time(double seconds) {
  char buffer[32];
  if (seconds >= 3600.0) {
    std::snprintf(buffer, sizeof buffer, "%.2f h", seconds / 3600.0);
  } else if (seconds >= 60.0) {
    std::snprintf(buffer, sizeof buffer, "%.2f min", seconds / 60.0);
  } else if (seconds >= 1.0) {
    std::snprintf(buffer, sizeof buffer, "%.2f s", seconds);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.1f ms", seconds * 1e3);
  }
  return buffer;
}

}  // namespace rex::bench
