// Dataset tests: quantization, synthetic generator statistics (the Table I
// shapes), split and partition invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/dataset.hpp"
#include "data/movielens.hpp"
#include "data/partition.hpp"
#include "support/error.hpp"

namespace rex::data {
namespace {

std::size_t total_train_ratings(const std::vector<NodeShard>& shards) {
  std::size_t total = 0;
  for (const NodeShard& s : shards) total += s.train.size();
  return total;
}

TEST(Rating, WireSizeIsTwelveBytes) {
  // The raw-data sharing argument rests on this: a data item is 12 bytes.
  EXPECT_EQ(kRatingWireSize, 12u);
}

TEST(Quantize, SnapsToHalfStars) {
  EXPECT_EQ(quantize_rating(3.14f), 3.0f);
  EXPECT_EQ(quantize_rating(3.26f), 3.5f);
  EXPECT_EQ(quantize_rating(0.1f), 0.5f);    // clamped to min
  EXPECT_EQ(quantize_rating(-2.0f), 0.5f);
  EXPECT_EQ(quantize_rating(7.9f), 5.0f);    // clamped to max
  EXPECT_EQ(quantize_rating(2.75f), 3.0f);   // round half away from zero
}

TEST(Quantize, OnlyTenDistinctValues) {
  std::set<float> values;
  for (float v = -1.0f; v <= 7.0f; v += 0.01f) {
    values.insert(quantize_rating(v));
  }
  EXPECT_EQ(values.size(), 10u);  // §IV-E: 0.5..5.0 in steps of 0.5
}

TEST(Dataset, BasicStats) {
  Dataset d;
  d.n_users = 3;
  d.n_items = 4;
  d.ratings = {{0, 0, 4.0f}, {0, 1, 2.0f}, {2, 3, 3.0f}};
  EXPECT_EQ(d.size(), 3u);
  EXPECT_NEAR(d.mean_rating(), 3.0, 1e-12);
  EXPECT_NEAR(d.density(), 3.0 / 12.0, 1e-12);
  const auto grouped = d.by_user();
  EXPECT_EQ(grouped[0].size(), 2u);
  EXPECT_EQ(grouped[1].size(), 0u);
  EXPECT_EQ(grouped[2].size(), 1u);
}

TEST(Split, FractionRespectedPerUser) {
  SyntheticConfig config;
  config.n_users = 50;
  config.n_items = 500;
  config.n_ratings = 5000;
  const Dataset d = generate_synthetic(config);
  Rng rng(1);
  const Split split = train_test_split(d, 0.7, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), d.size());
  EXPECT_NEAR(static_cast<double>(split.train.size()),
              0.7 * static_cast<double>(d.size()),
              0.05 * static_cast<double>(d.size()));
  // Every user retains at least one training rating.
  std::vector<int> train_count(d.n_users, 0);
  for (const Rating& r : split.train) ++train_count[r.user];
  for (std::size_t u = 0; u < d.n_users; ++u) {
    EXPECT_GE(train_count[u], 1) << "user " << u;
  }
}

TEST(Split, NoOverlapBetweenTrainAndTest) {
  SyntheticConfig config;
  config.n_users = 20;
  config.n_items = 200;
  config.n_ratings = 1000;
  const Dataset d = generate_synthetic(config);
  Rng rng(2);
  const Split split = train_test_split(d, 0.7, rng);
  std::set<std::pair<UserId, ItemId>> train_pairs;
  for (const Rating& r : split.train) train_pairs.insert({r.user, r.item});
  for (const Rating& r : split.test) {
    EXPECT_EQ(train_pairs.count({r.user, r.item}), 0u);
  }
}

TEST(Split, InvalidFractionThrows) {
  const Dataset d{1, 1, {{0, 0, 3.0f}}};
  Rng rng(1);
  EXPECT_THROW((void)train_test_split(d, 0.0, rng), Error);
  EXPECT_THROW((void)train_test_split(d, 1.5, rng), Error);
}

TEST(Synthetic, MatchesRequestedShape) {
  const SyntheticConfig config = movielens_latest_config();
  const Dataset d = generate_synthetic(config);
  EXPECT_EQ(d.n_users, 610u);
  EXPECT_EQ(d.n_items, 9000u);
  // Duplicate-pair rejection can fall slightly short of the target.
  EXPECT_NEAR(static_cast<double>(d.size()), 100000.0, 2000.0);
}

TEST(Synthetic, RatingsOnStarGrid) {
  SyntheticConfig config;
  config.n_users = 40;
  config.n_items = 400;
  config.n_ratings = 2000;
  const Dataset d = generate_synthetic(config);
  for (const Rating& r : d.ratings) {
    EXPECT_GE(r.value, kMinRating);
    EXPECT_LE(r.value, kMaxRating);
    EXPECT_EQ(r.value, quantize_rating(r.value));
  }
}

TEST(Synthetic, UniquePairs) {
  SyntheticConfig config;
  config.n_users = 30;
  config.n_items = 100;
  config.n_ratings = 1500;
  const Dataset d = generate_synthetic(config);
  std::set<std::pair<UserId, ItemId>> pairs;
  for (const Rating& r : d.ratings) {
    EXPECT_TRUE(pairs.insert({r.user, r.item}).second);
  }
}

TEST(Synthetic, DeterministicPerSeed) {
  SyntheticConfig config;
  config.n_users = 25;
  config.n_items = 200;
  config.n_ratings = 800;
  const Dataset a = generate_synthetic(config);
  const Dataset b = generate_synthetic(config);
  EXPECT_EQ(a.ratings, b.ratings);
  config.seed = 99;
  const Dataset c = generate_synthetic(config);
  EXPECT_NE(a.ratings, c.ratings);
}

TEST(Synthetic, PopularityIsSkewed) {
  SyntheticConfig config;
  config.n_users = 100;
  config.n_items = 1000;
  config.n_ratings = 20000;
  const Dataset d = generate_synthetic(config);
  std::vector<std::size_t> item_counts(config.n_items, 0);
  for (const Rating& r : d.ratings) ++item_counts[r.item];
  std::sort(item_counts.rbegin(), item_counts.rend());
  // Zipf head: the top 10% of items should hold well over 30% of ratings.
  std::size_t head = 0;
  for (std::size_t i = 0; i < config.n_items / 10; ++i) head += item_counts[i];
  EXPECT_GT(static_cast<double>(head), 0.3 * static_cast<double>(d.size()));
}

TEST(Synthetic, MeanNearGlobalMean) {
  SyntheticConfig config;
  config.n_users = 200;
  config.n_items = 1000;
  config.n_ratings = 20000;
  const Dataset d = generate_synthetic(config);
  EXPECT_NEAR(d.mean_rating(), config.global_mean, 0.25);
}

TEST(Synthetic, EveryUserMeetsFloor) {
  SyntheticConfig config;
  config.n_users = 64;
  config.n_items = 800;
  config.n_ratings = 4000;
  config.min_ratings_per_user = 15;
  const Dataset d = generate_synthetic(config);
  std::vector<std::size_t> counts(config.n_users, 0);
  for (const Rating& r : d.ratings) ++counts[r.user];
  for (std::size_t u = 0; u < config.n_users; ++u) {
    // Rejection sampling may fall a few short of quota, not far.
    EXPECT_GE(counts[u], 10u) << "user " << u;
  }
}

TEST(Synthetic, ScaledConfigPreservesShape) {
  const SyntheticConfig base = movielens_latest_config();
  const SyntheticConfig scaled = scaled_config(base, 0.2);
  EXPECT_EQ(scaled.n_users, 122u);
  EXPECT_EQ(scaled.n_items, 1800u);
  EXPECT_EQ(scaled.n_ratings, 20000u);
  EXPECT_THROW((void)scaled_config(base, 0.0), Error);
  EXPECT_THROW((void)scaled_config(base, 1.5), Error);
}

TEST(Synthetic, Table1Presets) {
  const SyntheticConfig latest = movielens_latest_config();
  EXPECT_EQ(latest.n_users, 610u);
  EXPECT_EQ(latest.n_ratings, 100000u);
  const SyntheticConfig big = movielens_25m_capped_config();
  EXPECT_EQ(big.n_users, 15000u);
  EXPECT_EQ(big.n_items, 28830u);
  EXPECT_EQ(big.n_ratings, 2249739u);
}

TEST(Partition, OneUserPerNode) {
  SyntheticConfig config;
  config.n_users = 30;
  config.n_items = 300;
  config.n_ratings = 900;
  const Dataset d = generate_synthetic(config);
  Rng rng(3);
  const Split split = train_test_split(d, 0.7, rng);
  const auto shards = partition_one_user_per_node(d, split);
  ASSERT_EQ(shards.size(), d.n_users);
  for (std::size_t node = 0; node < shards.size(); ++node) {
    for (const Rating& r : shards[node].train) EXPECT_EQ(r.user, node);
    for (const Rating& r : shards[node].test) EXPECT_EQ(r.user, node);
  }
  EXPECT_EQ(total_train_ratings(shards), split.train.size());
}

TEST(Partition, RoundRobinBalances) {
  SyntheticConfig config;
  config.n_users = 610;
  config.n_items = 2000;
  config.n_ratings = 20000;
  const Dataset d = generate_synthetic(config);
  Rng rng(4);
  const Split split = train_test_split(d, 0.7, rng);
  const auto shards = partition_users_round_robin(d, split, 50);
  ASSERT_EQ(shards.size(), 50u);
  // 610 users over 50 nodes: 12 or 13 users per node (paper §IV-A3b).
  std::vector<std::set<UserId>> users_per_node(50);
  for (std::size_t node = 0; node < 50; ++node) {
    for (const Rating& r : shards[node].train) {
      users_per_node[node].insert(r.user);
      EXPECT_EQ(r.user % 50, node);
    }
  }
  for (const auto& users : users_per_node) {
    EXPECT_GE(users.size(), 12u);
    EXPECT_LE(users.size(), 13u);
  }
  EXPECT_EQ(total_train_ratings(shards), split.train.size());
}

TEST(Partition, Validation) {
  const Dataset d{4, 4, {}};
  const Split split;
  EXPECT_THROW((void)partition_users_round_robin(d, split, 0), Error);
  EXPECT_THROW((void)partition_users_round_robin(d, split, 5), Error);
}

}  // namespace
}  // namespace rex::data
