// Experiment metrics: the per-epoch aggregates the paper's figures chart.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"
#include "support/sim_clock.hpp"

namespace rex::sim {

/// One synchronized round (= epoch) of a decentralized run, aggregated over
/// nodes; or one epoch of the centralized baseline.
struct RoundRecord {
  std::uint64_t epoch = 0;
  SimTime round_time;        // max node total + propagation latency
  SimTime cumulative_time;   // running simulated clock
  /// Nodes aggregated into this record: all of them for barrier rounds;
  /// for event-driven runs, the nodes that completed this epoch index
  /// (heterogeneous speeds make these counts diverge — by design).
  std::size_t nodes_reporting = 0;
  /// Partition-aware metric (DESIGN.md §6): mean fraction of the network
  /// online while this record's contributors completed it. Exactly 1.0 for
  /// barrier rounds and churn-free event runs.
  double reachable_fraction = 1.0;

  double mean_rmse = 0.0;    // "nodes mean RMSE" (Fig 1/2/4/5 y-axis)
  double min_rmse = 0.0;
  double max_rmse = 0.0;

  /// Per-node data in+out this epoch, averaged over nodes (Fig 2/5b/6b).
  double mean_bytes_in_out = 0.0;

  StageTimes mean_stages;    // Fig 5a/6a/7a breakdowns

  double mean_memory_bytes = 0.0;  // Fig 6b/7b RAM panel
  double max_memory_bytes = 0.0;

  double mean_store_size = 0.0;    // raw-data items held per node
  std::uint64_t duplicates_dropped = 0;
  /// Wire bytes the payload codecs avoided this epoch, summed over the
  /// reporting nodes (0 when compression is off — see docs/reporting.md).
  std::uint64_t bytes_saved_compression = 0;
};

struct ExperimentResult {
  std::string label;
  std::vector<RoundRecord> rounds;

  [[nodiscard]] bool empty() const { return rounds.empty(); }

  /// Mean RMSE of the last record with the run's largest nodes_reporting.
  /// Barrier, centralized and single-node runs report the same nodes every
  /// epoch, so that is the last record; event-driven runs go on recording
  /// the epochs fast nodes run ahead, and the last of those can cover a
  /// handful of nodes.
  [[nodiscard]] double final_rmse() const {
    std::size_t most = 0;
    for (const RoundRecord& r : rounds) {
      most = std::max(most, r.nodes_reporting);
    }
    for (auto r = rounds.rbegin(); r != rounds.rend(); ++r) {
      if (r->nodes_reporting == most) return r->mean_rmse;
    }
    return 0.0;
  }

  [[nodiscard]] SimTime total_time() const {
    return rounds.empty() ? SimTime{0.0} : rounds.back().cumulative_time;
  }

  /// First simulated time at which mean RMSE <= target (Table II/III
  /// "time to reach a given target error"); nullopt if never reached.
  [[nodiscard]] std::optional<SimTime> time_to_reach(double target_rmse) const {
    for (const RoundRecord& r : rounds) {
      if (r.mean_rmse <= target_rmse) return r.cumulative_time;
    }
    return std::nullopt;
  }

  /// Mean per-node in+out bytes per epoch over the whole run.
  [[nodiscard]] double mean_epoch_traffic() const {
    if (rounds.empty()) return 0.0;
    double acc = 0.0;
    for (const RoundRecord& r : rounds) acc += r.mean_bytes_in_out;
    return acc / static_cast<double>(rounds.size());
  }

  /// Mean per-epoch stage times over the run (Fig 6a/7a bars).
  [[nodiscard]] StageTimes mean_stage_times() const {
    StageTimes acc;
    if (rounds.empty()) return acc;
    for (const RoundRecord& r : rounds) acc += r.mean_stages;
    return acc / static_cast<double>(rounds.size());
  }

  /// Mean per-epoch wall time (Table IV overhead computation).
  [[nodiscard]] double mean_epoch_seconds() const {
    if (rounds.empty()) return 0.0;
    return total_time().seconds / static_cast<double>(rounds.size());
  }

  /// Peak node memory over the run.
  [[nodiscard]] double peak_memory_bytes() const {
    double peak = 0.0;
    for (const RoundRecord& r : rounds) {
      peak = std::max(peak, r.max_memory_bytes);
    }
    return peak;
  }
};

}  // namespace rex::sim
