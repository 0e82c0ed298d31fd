// DNN recommender (paper §II-A-c, §IV-A3b).
//
// Architecture: user/item embedding tables (k=20) whose concatenation feeds
// an MLP of four hidden linear+ReLU layers with dropout (0.02 after the
// embedding layer, 0.15 after the first two hidden layers) and a final ReLU
// output unit predicting the rating. Trained with Adam (lr=1e-4, weight
// decay=1e-5) on MSE. With the default hidden sizes and the 610-user /
// 9000-item dataset the model has ~215k parameters, matching the paper's
// 215 001 within configuration rounding.
#pragma once

#include "linalg/matrix.hpp"
#include "ml/adam.hpp"
#include "ml/model.hpp"

namespace rex::serialize {
class BinaryReader;
}

namespace rex::ml {

struct DnnConfig {
  std::size_t n_users = 0;
  std::size_t n_items = 0;
  std::size_t embedding_dim = 20;                 // k
  std::vector<std::size_t> hidden = {160, 80, 40, 20};
  float dropout_embedding = 0.02f;
  float dropout_hidden = 0.15f;  // applied to the first two hidden layers
  AdamParams adam;               // lr=1e-4, wd=1e-5 defaults
  float init_stddev = 0.1f;      // embedding init scale
  /// Output-unit bias initialization. The output activation is a ReLU; a
  /// zero-initialized bias leaves it in the dead region (all predictions 0,
  /// zero gradient) until weight decay slowly drifts it positive. Starting
  /// at the rating-scale midpoint makes epoch-0 predictions sensible, like
  /// the paper's curves which fall from the first epoch.
  float output_bias_init = 3.5f;
  std::size_t batch_size = 32;
  std::size_t batches_per_epoch = 10;  // fixed-batches rule (§III-E)
};

class DnnModel final : public RecModel {
 public:
  DnnModel(const DnnConfig& config, Rng& init_rng);

  [[nodiscard]] std::unique_ptr<RecModel> clone() const override;
  void train_epoch(std::span<const data::Rating> store, Rng& rng) override;
  void train_full_pass(std::span<const data::Rating> dataset,
                       Rng& rng) override;
  [[nodiscard]] float predict(data::UserId user,
                              data::ItemId item) const override;
  void merge(std::span<const MergeSource> sources,
             double self_weight) override;
  [[nodiscard]] Bytes serialize() const override;
  void deserialize(BytesView payload) override;
  void require_wire_shape(BytesView payload) const override;
  [[nodiscard]] std::size_t train_samples_per_epoch() const override {
    return config_.batch_size * config_.batches_per_epoch;
  }
  [[nodiscard]] std::size_t flops_per_sample() const override {
    // ~2 flops per MLP weight forward, ~4 backward+update.
    std::size_t mlp = 0;
    std::size_t in = 2 * config_.embedding_dim;
    for (std::size_t h : config_.hidden) {
      mlp += in * h;
      in = h;
    }
    mlp += in;
    return 6 * mlp + 8 * config_.embedding_dim;
  }
  [[nodiscard]] std::size_t flops_per_prediction() const override {
    std::size_t mlp = 0;
    std::size_t in = 2 * config_.embedding_dim;
    for (std::size_t h : config_.hidden) {
      mlp += in * h;
      in = h;
    }
    mlp += in;
    return 2 * mlp;
  }
  [[nodiscard]] std::size_t item_count() const override {
    return config_.n_items;
  }
  [[nodiscard]] std::size_t parameter_count() const override;
  [[nodiscard]] std::size_t wire_size() const override;
  [[nodiscard]] std::size_t memory_footprint() const override;
  [[nodiscard]] const char* kind() const override { return "dnn"; }

  [[nodiscard]] const DnnConfig& config() const { return config_; }

  /// Trains on one explicit minibatch (exposed for tests).
  void train_batch(std::span<const data::Rating> batch, Rng& rng);

 private:
  /// Reads the codec magic and the shape header, refusing a mismatch.
  void read_header(serialize::BinaryReader& r) const;

  struct DenseLayer {
    linalg::Matrix weights;        // out x in
    std::vector<float> bias;       // out
    linalg::Matrix grad_weights;   // batch gradient accumulator
    std::vector<float> grad_bias;
    Adam optimizer;                // over weights then bias, flattened
  };

  /// Per-sample forward/backward scratch (one activation set per layer).
  struct Workspace {
    std::vector<std::vector<float>> activations;  // input of each layer
    std::vector<std::vector<float>> pre_act;      // z of each layer
    std::vector<std::vector<float>> grads;        // dL/d(input of layer)
    std::vector<std::vector<std::uint8_t>> dropout_mask;
  };

  void build_layers(Rng& init_rng);
  [[nodiscard]] float forward(data::UserId user, data::ItemId item,
                              bool training, Rng* rng, Workspace& ws) const;
  void backward(data::UserId user, data::ItemId item, float output_grad,
                Workspace& ws, std::vector<float>& user_grad,
                std::vector<float>& item_grad);
  void zero_layer_grads();

  DnnConfig config_;
  linalg::Matrix user_embeddings_;
  linalg::Matrix item_embeddings_;
  std::vector<std::uint8_t> seen_user_;
  std::vector<std::uint8_t> seen_item_;
  std::vector<DenseLayer> layers_;  // hidden layers + output layer
  Adam user_emb_optimizer_;
  Adam item_emb_optimizer_;
  // Reused across samples. Only a model no thread runs is shared across
  // threads: a scenario's initial model, read by concurrent clone() calls.
  mutable Workspace scratch_;
};

}  // namespace rex::ml
