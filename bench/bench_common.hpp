// Shared infrastructure for the bench binaries.
//
// Every bench accepts the same flags:
//   --paper-scale   run at the paper's full scale (610 nodes / 15k users /
//                   full epoch counts) instead of the reduced default
//   --epochs N      override the epoch count
//   --seed S        experiment seed (default 1)
//   --csv DIR       dump raw per-epoch series as CSV files into DIR
//   --threads N     simulator worker threads (default: hardware)
//   --wan PROFILE   per-edge WAN link profile (lan | wan | geo); consumed
//                   by the benches that model networks (bench_async_stragglers)
//
// bench_paper also takes experiment names as positional arguments.
//
// The default scales are chosen so the complete bench suite finishes in
// minutes on a laptop while preserving every shape the paper reports
// (orderings, crossovers, orders of magnitude). README.md "Reproducing the
// paper" records the paper-vs-measured comparison.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/report.hpp"

namespace rex::bench {

struct Options {
  bool paper_scale = false;
  std::size_t epochs = 0;  // 0 = use the bench's default
  std::uint64_t seed = 1;
  std::string csv_dir;  // empty = no CSV dumps
  std::size_t threads = 0;
  /// Path of a committed BENCH_*.json to regress against (CI gate); empty =
  /// no comparison.
  std::string baseline_path;
  /// Named sim::LinkModel profile (--wan); empty = homogeneous links.
  std::string wan_profile;
  /// Churn/rejoin showcase (--churn): event-driven run with churn enabled,
  /// the rejoin protocol exercised, and a 1/2/8-thread bit-identity
  /// self-check (consumed by bench_async_stragglers).
  bool churn = false;
  /// Per-node open-loop query rate in simulated Hz (--query-load); 0 keeps
  /// serving off. Consumed by the benches that exercise the serving path
  /// (DESIGN.md §9).
  double query_load = 0.0;
  /// CI smoke mode (--smoke): reduced scale tuned for the release-bench
  /// workflow — seconds, not minutes, while keeping every gated metric
  /// meaningful.
  bool smoke = false;
  /// Mega-scale profile (--mega-scale): one >= 100k-node event-driven cell
  /// (DESIGN.md §10). Exclusive mode — the
  /// process must run nothing else, since the bytes/node gate divides
  /// process peak RSS by the node count. Consumed by
  /// bench_async_stragglers.
  bool mega_scale = false;
  /// Per-node CSV decimation (--node-csv-sample N): write only nodes with
  /// id % N == 0. 0 = unset, which means a full dump (N = 1) everywhere
  /// except the mega-scale profile, where an O(active) coarse stride is the
  /// default and the full 100k-row dump is opt-in via an explicit
  /// --node-csv-sample 1 (DESIGN.md §10).
  std::size_t node_csv_sample = 0;
  /// Positional arguments: the experiments bench_paper should run (empty =
  /// all). Only names the bench passed to parse_options are accepted.
  std::vector<std::string> names;

  /// Effective per-node CSV stride: the explicit --node-csv-sample value,
  /// else `fallback` (1 for the ordinary benches, coarse for mega-scale).
  [[nodiscard]] std::size_t node_csv_sample_or(std::size_t fallback) const {
    return node_csv_sample != 0 ? node_csv_sample : fallback;
  }

  /// Epochs to run: the explicit override, else `fallback`.
  [[nodiscard]] std::size_t epochs_or(std::size_t fallback) const {
    return epochs != 0 ? epochs : fallback;
  }
};

/// Parses the standard flags; prints usage and exits on --help or errors.
/// A positional argument must be one of `names` and lands in
/// Options::names; a bench that passes no names rejects them.
[[nodiscard]] Options parse_options(
    int argc, char** argv, const std::string& bench_name,
    const std::string& description,
    const std::vector<std::string>& names = {});

/// One (algorithm, topology) evaluation cell of the paper's 2x2 grid.
struct Cell {
  core::Algorithm algorithm;
  sim::TopologyKind topology;

  [[nodiscard]] std::string name() const;
};

/// The paper's four cells in its reporting order (Figs 1/2/4, Tables II/III).
[[nodiscard]] const std::vector<Cell>& standard_cells();

/// Scenario for the one-node-per-user experiments (§IV-B-a, Figs 1-3,
/// Table II): MovieLens-Latest-shaped dataset, MF, k=10, 300 points/epoch.
/// Default scale runs 128 nodes; paper scale runs the full 610.
[[nodiscard]] sim::Scenario one_user_scenario(const Options& options,
                                              const Cell& cell,
                                              core::SharingMode sharing);

/// Scenario for the multiple-users-per-node experiments (§IV-B-b, Fig 4,
/// Table III): 610 users partitioned over 50 nodes.
[[nodiscard]] sim::Scenario multi_user_scenario(const Options& options,
                                                const Cell& cell,
                                                core::SharingMode sharing);

/// Scenario for the DNN experiments (§IV-B-b, Fig 5): D-PSGD, 40 points
/// per epoch, Adam. Default runs 24 nodes; paper scale runs 50.
[[nodiscard]] sim::Scenario dnn_scenario(const Options& options,
                                         sim::TopologyKind topology,
                                         core::SharingMode sharing);

/// Scenario for the SGX hardware experiments (§IV-C/D, Figs 6/7, Table IV):
/// 8 nodes on 4 platforms, fully connected (28 pair-wise connections).
/// `large_dataset` selects the 15k-user dataset that overcommits the EPC.
[[nodiscard]] sim::Scenario sgx_scenario(const Options& options,
                                         core::Algorithm algorithm,
                                         core::SharingMode sharing,
                                         bool secure, bool large_dataset);

/// Runs a scenario, echoing a one-line progress note to stderr. With
/// `centralized_epochs` > 0 it runs the scenario's centralized baseline
/// (same dataset, split and model) for that many epochs instead.
[[nodiscard]] sim::ExperimentResult run_logged(
    const sim::Scenario& scenario, std::size_t centralized_epochs = 0);

/// Writes `result` to `<csv_dir>/<file>.csv` when --csv was given.
void maybe_csv(const Options& options, const sim::ExperimentResult& result,
               const std::string& file);

/// Prints the standard bench header (figure/table id + configuration).
void print_header(const std::string& title, const Options& options);

/// Human-readable simulated duration ("12.34 s", "4.10 min"): two decimals
/// where rex::format_time prints one, so bench tables keep their digits.
[[nodiscard]] std::string format_time(double seconds);

/// Minimal ordered JSON-object writer for machine-readable BENCH_*.json
/// artifacts (perf trajectory tracking: one flat object, insertion order).
class BenchJson {
 public:
  void number(const std::string& key, double value);
  void integer(const std::string& key, std::uint64_t value);
  void str(const std::string& key, const std::string& value);

  /// Writes the object to `path` (and echoes the path to stderr).
  void write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Reads one numeric field out of a BENCH_*.json written by BenchJson.
/// Returns false when the file or key is missing (no throw: CI baselines
/// may not exist yet on fresh branches).
[[nodiscard]] bool read_bench_json_number(const std::string& path,
                                          const std::string& key,
                                          double* value);

/// CI regression gate against a committed BENCH_*.json baseline. Each
/// require_* call compares one measured cell against the baseline value
/// under the given tolerance multiplier; failures name the offending cell
/// and print the measured-vs-baseline ratio so the CI log pinpoints the
/// regression without re-running locally. Cells missing from the baseline
/// file (fresh branches, renamed metrics) skip with a note instead of
/// failing. exit_code() is 0 when every checked cell passed, 3 otherwise —
/// the bench exit convention the release-bench-smoke workflow keys on.
class BaselineGate {
 public:
  explicit BaselineGate(std::string baseline_path);

  /// Fails when measured < baseline * floor_factor (throughput-style cells;
  /// e.g. floor_factor 0.75 tolerates a 25% dip). Returns pass/fail.
  bool require_floor(const std::string& key, double measured,
                     double floor_factor);

  /// Fails when measured > baseline * ceiling_factor (latency/size-style
  /// cells; e.g. ceiling_factor 1.25 tolerates 25% growth). Returns
  /// pass/fail.
  bool require_ceiling(const std::string& key, double measured,
                       double ceiling_factor);

  [[nodiscard]] bool all_passed() const { return failures_ == 0; }
  /// 0 when all checked cells passed, 3 on any failure (CI convention).
  [[nodiscard]] int exit_code() const { return failures_ == 0 ? 0 : 3; }

 private:
  bool check(const std::string& key, double measured, double factor,
             bool is_floor);

  std::string baseline_path_;
  std::size_t failures_ = 0;
};

/// Peak resident set size of this process so far, in bytes (Linux
/// ru_maxrss; 0 where unsupported).
[[nodiscard]] std::size_t peak_rss_bytes();

}  // namespace rex::bench
