#include "data/partition.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace rex::data {

namespace {

std::vector<NodeShard> partition_by_user_map(
    const Dataset& dataset, const Split& split,
    const std::vector<std::size_t>& node_of_user, std::size_t n_nodes) {
  std::vector<NodeShard> shards(n_nodes);
  for (const Rating& r : split.train) {
    REX_REQUIRE(r.user < dataset.n_users, "train rating user out of range");
    shards[node_of_user[r.user]].train.push_back(r);
  }
  for (const Rating& r : split.test) {
    REX_REQUIRE(r.user < dataset.n_users, "test rating user out of range");
    shards[node_of_user[r.user]].test.push_back(r);
  }
  return shards;
}

}  // namespace

std::vector<NodeShard> partition_one_user_per_node(const Dataset& dataset,
                                                   const Split& split) {
  std::vector<std::size_t> node_of_user(dataset.n_users);
  for (std::size_t u = 0; u < dataset.n_users; ++u) node_of_user[u] = u;
  return partition_by_user_map(dataset, split, node_of_user, dataset.n_users);
}

std::vector<NodeShard> partition_users_round_robin(const Dataset& dataset,
                                                   const Split& split,
                                                   std::size_t n_nodes) {
  REX_REQUIRE(n_nodes > 0, "need at least one node");
  REX_REQUIRE(n_nodes <= dataset.n_users,
              "more nodes than users; use one-user-per-node instead");
  std::vector<std::size_t> node_of_user(dataset.n_users);
  for (std::size_t u = 0; u < dataset.n_users; ++u) {
    node_of_user[u] = u % n_nodes;
  }
  return partition_by_user_map(dataset, split, node_of_user, n_nodes);
}

std::vector<NodeShard> partition_users_by_taste(const Dataset& dataset,
                                                const Split& split,
                                                std::size_t n_nodes) {
  REX_REQUIRE(n_nodes > 0, "need at least one node");
  REX_REQUIRE(n_nodes <= dataset.n_users,
              "more nodes than users; use one-user-per-node instead");

  // Mean rating per user over the full dataset (users without ratings sort
  // to the scale midpoint).
  std::vector<double> sum(dataset.n_users, 0.0);
  std::vector<std::size_t> count(dataset.n_users, 0);
  for (const Rating& r : dataset.ratings) {
    sum[r.user] += static_cast<double>(r.value);
    ++count[r.user];
  }
  std::vector<UserId> users(dataset.n_users);
  for (std::size_t u = 0; u < dataset.n_users; ++u) {
    users[u] = static_cast<UserId>(u);
  }
  const auto mean_of = [&](UserId u) {
    return count[u] == 0 ? 2.75 : sum[u] / static_cast<double>(count[u]);
  };
  std::stable_sort(users.begin(), users.end(), [&](UserId a, UserId b) {
    return mean_of(a) < mean_of(b);
  });

  // Contiguous taste blocks, sized like the round-robin cohorts (the first
  // `n_users % n_nodes` nodes take one extra user).
  std::vector<std::size_t> node_of_user(dataset.n_users);
  const std::size_t base = dataset.n_users / n_nodes;
  const std::size_t extra = dataset.n_users % n_nodes;
  std::size_t next = 0;
  for (std::size_t node = 0; node < n_nodes; ++node) {
    const std::size_t cohort = base + (node < extra ? 1 : 0);
    for (std::size_t i = 0; i < cohort; ++i) {
      node_of_user[users[next++]] = node;
    }
  }
  return partition_by_user_map(dataset, split, node_of_user, n_nodes);
}

}  // namespace rex::data
