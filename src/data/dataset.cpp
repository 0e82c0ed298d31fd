#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace rex::data {

float quantize_rating(float value) {
  const float snapped = std::round(value * 2.0f) / 2.0f;
  return std::clamp(snapped, kMinRating, kMaxRating);
}

double Dataset::mean_rating() const {
  if (ratings.empty()) return 0.0;
  double acc = 0.0;
  for (const Rating& r : ratings) acc += static_cast<double>(r.value);
  return acc / static_cast<double>(ratings.size());
}

double Dataset::density() const {
  if (n_users == 0 || n_items == 0) return 0.0;
  return static_cast<double>(ratings.size()) /
         (static_cast<double>(n_users) * static_cast<double>(n_items));
}

std::vector<std::vector<Rating>> Dataset::by_user() const {
  std::vector<std::vector<Rating>> grouped(n_users);
  for (const Rating& r : ratings) {
    REX_REQUIRE(r.user < n_users, "rating user id out of range");
    grouped[r.user].push_back(r);
  }
  return grouped;
}

Split train_test_split(const Dataset& dataset, double train_fraction,
                       Rng& rng) {
  REX_REQUIRE(train_fraction > 0.0 && train_fraction <= 1.0,
              "train_fraction must be in (0,1]");
  Split split;
  split.train.reserve(
      static_cast<std::size_t>(static_cast<double>(dataset.size()) *
                               train_fraction) + dataset.n_users);
  for (auto& user_ratings : dataset.by_user()) {
    if (user_ratings.empty()) continue;
    rng.shuffle(user_ratings);
    // At least one rating stays in train so every user can learn a profile.
    const std::size_t n_train = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(static_cast<double>(user_ratings.size()) *
                            train_fraction)));
    for (std::size_t i = 0; i < user_ratings.size(); ++i) {
      (i < n_train ? split.train : split.test).push_back(user_ratings[i]);
    }
  }
  return split;
}

}  // namespace rex::data
