#include "data/movielens.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "support/error.hpp"

namespace rex::data {

namespace {

/// Cumulative Zipf weights over `n` ranks with exponent `s`.
std::vector<double> zipf_cumulative(std::size_t n, double s) {
  std::vector<double> cumulative(n);
  double acc = 0.0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    acc += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cumulative[rank] = acc;
  }
  for (double& c : cumulative) c /= acc;
  return cumulative;
}

std::size_t sample_from_cumulative(const std::vector<double>& cumulative,
                                   Rng& rng) {
  const double u = rng.uniform01();
  const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
  return static_cast<std::size_t>(it - cumulative.begin());
}

}  // namespace

Dataset generate_synthetic(const SyntheticConfig& config) {
  REX_REQUIRE(config.n_users > 0 && config.n_items > 0,
              "dataset dimensions must be positive");
  REX_REQUIRE(config.n_ratings >= config.n_users,
              "need at least one rating per user");
  Rng rng(config.seed);

  // Planted ground truth: the low-rank structure MF should recover.
  linalg::Matrix user_factors(config.n_users, config.latent_dim);
  linalg::Matrix item_factors(config.n_items, config.latent_dim);
  user_factors.randomize_normal(rng, static_cast<float>(config.factor_stddev));
  item_factors.randomize_normal(rng, static_cast<float>(config.factor_stddev));
  std::vector<float> user_bias(config.n_users), item_bias(config.n_items);
  for (float& b : user_bias) {
    b = static_cast<float>(rng.normal(0.0, config.bias_stddev));
  }
  for (float& b : item_bias) {
    b = static_cast<float>(rng.normal(0.0, config.bias_stddev));
  }

  // Item popularity: Zipf over a random permutation so popular item ids are
  // scattered (as in MovieLens, where id order is not popularity order).
  std::vector<ItemId> item_by_rank(config.n_items);
  for (std::size_t i = 0; i < config.n_items; ++i) {
    item_by_rank[i] = static_cast<ItemId>(i);
  }
  rng.shuffle(item_by_rank);
  const std::vector<double> item_cumulative =
      zipf_cumulative(config.n_items, config.item_popularity_exponent);

  // Per-user rating quotas: Zipf-skewed activity with a floor, scaled so the
  // total approximates n_ratings.
  const std::vector<double> user_cumulative = zipf_cumulative(
      config.n_users, 0.8);  // milder skew than item popularity
  std::vector<double> raw_quota(config.n_users);
  double raw_total = 0.0;
  for (std::size_t u = 0; u < config.n_users; ++u) {
    const double weight =
        user_cumulative[u] - (u == 0 ? 0.0 : user_cumulative[u - 1]);
    raw_quota[u] = weight;
    raw_total += weight;
  }
  std::vector<UserId> user_by_rank(config.n_users);
  for (std::size_t u = 0; u < config.n_users; ++u) {
    user_by_rank[u] = static_cast<UserId>(u);
  }
  rng.shuffle(user_by_rank);

  const std::size_t max_per_user = std::clamp<std::size_t>(
      config.n_items / 2, config.min_ratings_per_user, config.n_items);
  std::vector<std::size_t> quota(config.n_users);
  std::size_t total = 0;
  for (std::size_t rank = 0; rank < config.n_users; ++rank) {
    const UserId u = user_by_rank[rank];
    std::size_t q = static_cast<std::size_t>(
        std::llround(raw_quota[rank] / raw_total *
                     static_cast<double>(config.n_ratings)));
    q = std::clamp(q, config.min_ratings_per_user, max_per_user);
    quota[u] = q;
    total += q;
  }
  // Trim or pad uniformly towards the requested total (±1 per user passes).
  // The reachable total is bounded by the per-user floor/ceiling, so clamp
  // the target first: a request denser than n_users * max_per_user (or
  // sparser than the floor) would otherwise never be satisfiable.
  const std::size_t target =
      std::clamp(config.n_ratings, config.n_users * config.min_ratings_per_user,
                 config.n_users * max_per_user);
  while (total > target) {
    const UserId u = static_cast<UserId>(rng.uniform(config.n_users));
    if (quota[u] > config.min_ratings_per_user) {
      --quota[u];
      --total;
    }
  }
  while (total < target) {
    const UserId u = static_cast<UserId>(rng.uniform(config.n_users));
    if (quota[u] < max_per_user) {
      ++quota[u];
      ++total;
    }
  }

  Dataset dataset;
  dataset.n_users = config.n_users;
  dataset.n_items = config.n_items;
  dataset.ratings.reserve(total);

  // Users are generated one at a time, so a duplicate (user, item) pair can
  // only repeat one of the current user's items: one flag per item, cleared
  // from the user's own ratings once the user is done.
  std::vector<std::uint8_t> rated(config.n_items, 0);
  for (UserId u = 0; u < config.n_users; ++u) {
    const std::size_t first = dataset.ratings.size();
    std::size_t produced = 0;
    std::size_t attempts = 0;
    const std::size_t attempt_budget = quota[u] * 64 + 256;
    while (produced < quota[u] && attempts < attempt_budget) {
      ++attempts;
      const std::size_t rank = sample_from_cumulative(item_cumulative, rng);
      const ItemId item = item_by_rank[rank];
      if (rated[item] != 0) continue;  // duplicate pair
      rated[item] = 1;

      const float signal =
          linalg::dot(user_factors.row(u), item_factors.row(item));
      const float raw = static_cast<float>(
          config.global_mean + static_cast<double>(user_bias[u]) +
          static_cast<double>(item_bias[item]) +
          static_cast<double>(signal) +
          rng.normal(0.0, config.noise_stddev));
      dataset.ratings.push_back(Rating{u, item, quantize_rating(raw)});
      ++produced;
    }
    for (std::size_t i = first; i < dataset.ratings.size(); ++i) {
      rated[dataset.ratings[i].item] = 0;
    }
  }
  return dataset;
}

SyntheticConfig movielens_latest_config() {
  SyntheticConfig config;
  config.name = "MovieLens Latest (synthetic)";
  config.n_users = 610;
  config.n_items = 9000;
  config.n_ratings = 100000;
  config.seed = 2018;
  return config;
}

SyntheticConfig movielens_25m_capped_config() {
  SyntheticConfig config;
  config.name = "MovieLens 25M capped (synthetic)";
  config.n_users = 15000;
  config.n_items = 28830;
  config.n_ratings = 2249739;
  config.seed = 2019;
  return config;
}

SyntheticConfig scaled_config(const SyntheticConfig& base, double scale) {
  REX_REQUIRE(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
  SyntheticConfig config = base;
  config.name = base.name + " @" + std::to_string(scale);
  config.n_users = std::max<std::size_t>(
      8, static_cast<std::size_t>(static_cast<double>(base.n_users) * scale));
  config.n_items = std::max<std::size_t>(
      64, static_cast<std::size_t>(static_cast<double>(base.n_items) * scale));
  config.n_ratings = std::max<std::size_t>(
      config.n_users * config.min_ratings_per_user,
      static_cast<std::size_t>(static_cast<double>(base.n_ratings) * scale));
  return config;
}

}  // namespace rex::data
