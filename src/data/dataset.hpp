// Rating datasets.
//
// A Rating is the paper's raw-data unit: the <user, item, value> triplet
// (§II-A). REX's headline result rests on this triplet being ~12 bytes on
// the wire while models are hundreds of kilobytes.
#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace rex::data {

using UserId = std::uint32_t;
using ItemId = std::uint32_t;

/// One user-item interaction. Values follow the MovieLens scale: 0.5..5.0
/// stars in steps of 0.5 (ten distinct values — §IV-E on compressibility).
struct Rating {
  UserId user = 0;
  ItemId item = 0;
  float value = 0.0f;

  friend bool operator==(const Rating&, const Rating&) = default;
};

/// Wire size of one raw data item: two ids + one value.
inline constexpr std::size_t kRatingWireSize = 2 * sizeof(std::uint32_t) +
                                               sizeof(float);

inline constexpr float kMinRating = 0.5f;
inline constexpr float kMaxRating = 5.0f;

/// Snaps a real-valued score to the MovieLens star grid.
[[nodiscard]] float quantize_rating(float value);

/// A full dataset: dimensions plus the interaction list.
struct Dataset {
  std::size_t n_users = 0;
  std::size_t n_items = 0;
  std::vector<Rating> ratings;

  [[nodiscard]] std::size_t size() const { return ratings.size(); }

  /// Mean rating value (0 for an empty dataset).
  [[nodiscard]] double mean_rating() const;

  /// Fraction of the user-item matrix that is filled.
  [[nodiscard]] double density() const;

  /// Ratings grouped per user (index = user id).
  [[nodiscard]] std::vector<std::vector<Rating>> by_user() const;
};

/// Train/test split result.
struct Split {
  std::vector<Rating> train;
  std::vector<Rating> test;
};

/// Splits per user: each user's ratings are shuffled and divided so that
/// ~train_fraction of them land in train (paper §IV-A3a uses 70/30). Users
/// with a single rating keep it in train.
[[nodiscard]] Split train_test_split(const Dataset& dataset,
                                     double train_fraction, Rng& rng);

}  // namespace rex::data
