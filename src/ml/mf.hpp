// Biased matrix factorization trained with SGD (paper §II-A-b, §IV-A3a).
//
// Model: p(u,i) = mu + b_u + c_i + x_u · y_i with k-dimensional embeddings,
// L2 regularization λ on the embeddings, learning rate η. Paper settings:
// k=10, η=0.005, λ=0.1. Each node additionally tracks which user/item rows
// it has ever trained on ("seen" masks) so decentralized merging can skip
// rows a peer knows nothing about (§III-C2).
#pragma once

#include "linalg/matrix.hpp"
#include "ml/model.hpp"

namespace rex::serialize {
class BinaryReader;
class BinaryWriter;
}

namespace rex::ml {

struct MfConfig {
  std::size_t n_users = 0;
  std::size_t n_items = 0;
  std::size_t embedding_dim = 10;        // k
  float learning_rate = 0.005f;          // eta
  float regularization = 0.1f;           // lambda
  float init_stddev = 0.1f;              // embedding init scale
  float global_mean = 3.5f;              // mu (dataset mean; fixed, not learned)
  std::size_t sgd_steps_per_epoch = 500; // fixed-batches rule (§III-E)
};

class MfModel final : public RecModel {
 public:
  /// Initializes embeddings from `init_rng`; biases start at zero. The
  /// first draw seeds the user rows: row u always starts from a stream
  /// keyed by that seed and u, whichever order rows materialize in.
  /// Every user row is materialized up front, in user order, when
  /// n_users <= n_items; otherwise rows materialize on first write.
  MfModel(const MfConfig& config, Rng& init_rng);

  [[nodiscard]] std::unique_ptr<RecModel> clone() const override;
  void train_epoch(std::span<const data::Rating> store, Rng& rng) override;
  void train_full_pass(std::span<const data::Rating> dataset,
                       Rng& rng) override;
  [[nodiscard]] float predict(data::UserId user,
                              data::ItemId item) const override;
  /// Same accumulation as RecModel::rmse (bit-identical results) with the
  /// per-rating predict() statically bound: the test step calls this for
  /// every node every epoch.
  [[nodiscard]] double rmse(std::span<const data::Rating> ratings)
      const override;
  [[nodiscard]] std::size_t item_count() const override {
    return config_.n_items;
  }
  /// Statically-bound scoring loop for the serving path: one SIMD dot per
  /// item over contiguous embedding rows, bit-identical to predict() per
  /// item (same expression, same order).
  void score_items(data::UserId user, std::span<float> out) const override;
  void merge(std::span<const MergeSource> sources,
             double self_weight) override;
  [[nodiscard]] Bytes serialize() const override;
  /// q8 affine per-tensor quantization ("mfq" blob, ~4x smaller than the
  /// exact encoding): each float tensor travels as (min, scale, u8 codes).
  [[nodiscard]] Bytes serialize_quantized() const override;
  /// Accepts the exact ("mf") and quantized ("mfq") encodings.
  void deserialize(BytesView payload) override;
  void require_wire_shape(BytesView payload) const override;
  [[nodiscard]] std::size_t train_samples_per_epoch() const override {
    return config_.sgd_steps_per_epoch;
  }
  [[nodiscard]] std::size_t flops_per_sample() const override {
    // predict (2k) + embedding updates (6k) + bias updates.
    return 8 * config_.embedding_dim + 16;
  }
  [[nodiscard]] std::size_t flops_per_prediction() const override {
    return 2 * config_.embedding_dim + 4;
  }
  [[nodiscard]] std::size_t parameter_count() const override;
  [[nodiscard]] std::size_t wire_size() const override;
  [[nodiscard]] std::size_t memory_footprint() const override;
  [[nodiscard]] const char* kind() const override { return "mf"; }

  [[nodiscard]] const MfConfig& config() const { return config_; }
  [[nodiscard]] bool has_seen_user(data::UserId u) const {
    return seen_user_slot(u) != kNoSlot;
  }
  [[nodiscard]] bool has_seen_item(data::ItemId i) const {
    return seen_item_[i] != 0;
  }
  /// User rows currently backed by storage (n_users when materialized up
  /// front).
  [[nodiscard]] std::size_t materialized_user_rows() const {
    return user_bias_.size();
  }

  /// One SGD update on a single rating (exposed for tests / benches).
  void sgd_step(const data::Rating& rating);

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  using TensorWriter = void (*)(serialize::BinaryWriter&,
                                std::span<const float>);
  using TensorReader = void (*)(serialize::BinaryReader&, std::span<float>);

  /// The "mf" and "mfq" encodings: the same layout, one tensor codec.
  [[nodiscard]] Bytes encode(const char* magic, TensorWriter write) const;
  /// Reads the codec magic and the shape header, refusing a mismatch;
  /// true for the q8 codec ("mfq").
  [[nodiscard]] bool read_header(serialize::BinaryReader& r) const;
  void decode(serialize::BinaryReader& r, TensorReader read);

  /// True when every user row lives at slot == user id (no index).
  [[nodiscard]] bool rows_in_user_order() const {
    return config_.n_users <= config_.n_items;
  }
  /// Slot of user `u`, or kNoSlot while its row is not materialized.
  [[nodiscard]] std::size_t find_user_slot(data::UserId u) const;
  /// Slot of user `u` if its row has been seen, else kNoSlot.
  [[nodiscard]] std::size_t seen_user_slot(data::UserId u) const {
    const std::size_t slot = find_user_slot(u);
    return slot != kNoSlot && seen_user_[slot] != 0 ? slot : kNoSlot;
  }
  /// Slot of user `u`, materializing the row with its init values.
  std::size_t ensure_user_slot(data::UserId u);
  /// The init values of row `u`: a stream keyed by (user_seed_, u) only.
  void init_user_row(data::UserId u, std::span<float> out) const;
  [[nodiscard]] std::span<float> slot_row(std::size_t slot) {
    return std::span<float>(user_rows_).subspan(
        slot * config_.embedding_dim, config_.embedding_dim);
  }
  [[nodiscard]] std::span<const float> slot_row(std::size_t slot) const {
    return std::span<const float>(user_rows_).subspan(
        slot * config_.embedding_dim, config_.embedding_dim);
  }
  /// Read access to row `u`; a row not yet materialized reads as its init
  /// values, computed into a per-thread scratch (valid until the next
  /// user_row call on the thread).
  [[nodiscard]] std::span<const float> user_row(data::UserId u) const;
  [[nodiscard]] float user_bias_at(data::UserId u) const;
  /// The user tensors in user order, as the codecs carry them.
  struct UserImage {
    std::vector<float> rows;
    std::vector<float> bias;
    std::vector<std::uint8_t> seen;
  };
  /// Snapshot of every user row; unmaterialized rows read as their init
  /// values, unseen with a zero bias.
  [[nodiscard]] UserImage user_image() const;
  /// Stores a full user image (materializes every row).
  void load_user_image(const UserImage& image);

  MfConfig config_;
  std::uint64_t user_seed_;          // keys every user row's init stream
  linalg::Matrix item_embeddings_;   // n_items x k
  std::vector<float> item_bias_;     // c
  std::vector<std::uint8_t> seen_item_;

  // User-row store (DESIGN.md §10): k floats, a bias and a seen byte per
  // slot. user_slots_ maps user -> slot, sorted by user id; it stays empty
  // when rows are in user order (slot == user).
  std::vector<float> user_rows_;
  std::vector<float> user_bias_;     // b
  std::vector<std::uint8_t> seen_user_;
  std::vector<std::pair<data::UserId, std::uint32_t>> user_slots_;
};

}  // namespace rex::ml
