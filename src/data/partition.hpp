// Partitioning datasets across decentralized nodes.
//
// The paper evaluates two placements (§IV-A5):
//   - one node per user: node i holds exactly user i's ratings (the "users
//     own their data" scenario);
//   - multiple users per node: the 610 users' ratings spread over 50 nodes
//     (12-13 users each), the "edge servers serving user cohorts" scenario.
#pragma once

#include <vector>

#include "data/dataset.hpp"

namespace rex::data {

/// Per-node shard: local train and test ratings.
struct NodeShard {
  std::vector<Rating> train;
  std::vector<Rating> test;
};

/// One node per user: node i receives user i's portion of the split.
/// Requires dataset.n_users nodes.
[[nodiscard]] std::vector<NodeShard> partition_one_user_per_node(
    const Dataset& dataset, const Split& split);

/// Multiple users per node: users are assigned round-robin to `n_nodes`
/// nodes (610 users / 50 nodes = 12-13 users each, as §IV-A3b).
[[nodiscard]] std::vector<NodeShard> partition_users_round_robin(
    const Dataset& dataset, const Split& split, std::size_t n_nodes);

/// Pathological non-IID placement (the paper's §IV-E future-work study):
/// users are sorted by their mean rating and contiguous blocks are
/// assigned to nodes, so each node serves a taste-homogeneous cohort
/// (harsh raters together, generous raters together). Cohort sizes match
/// the round-robin partitioner; only the composition changes.
[[nodiscard]] std::vector<NodeShard> partition_users_by_taste(
    const Dataset& dataset, const Split& split, std::size_t n_nodes);

}  // namespace rex::data
