#include "ml/dnn.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.hpp"
#include "serialize/binary.hpp"
#include "support/error.hpp"

namespace rex::ml {

namespace {

/// Layer widths including input (2k) and output (1).
std::vector<std::size_t> layer_dims(const DnnConfig& config) {
  std::vector<std::size_t> dims;
  dims.push_back(2 * config.embedding_dim);
  for (std::size_t h : config.hidden) dims.push_back(h);
  dims.push_back(1);
  return dims;
}

}  // namespace

DnnModel::DnnModel(const DnnConfig& config, Rng& init_rng)
    : config_(config),
      user_embeddings_(config.n_users, config.embedding_dim),
      item_embeddings_(config.n_items, config.embedding_dim),
      seen_user_(config.n_users, 0),
      seen_item_(config.n_items, 0) {
  REX_REQUIRE(config.n_users > 0 && config.n_items > 0,
              "DNN model dimensions must be positive");
  REX_REQUIRE(config.embedding_dim > 0, "embedding dim must be positive");
  REX_REQUIRE(!config.hidden.empty(), "DNN needs at least one hidden layer");
  user_embeddings_.randomize_normal(init_rng, config.init_stddev);
  item_embeddings_.randomize_normal(init_rng, config.init_stddev);
  user_emb_optimizer_ = Adam(user_embeddings_.size(), config.adam);
  item_emb_optimizer_ = Adam(item_embeddings_.size(), config.adam);
  build_layers(init_rng);
}

void DnnModel::build_layers(Rng& init_rng) {
  const auto dims = layer_dims(config_);
  layers_.clear();
  layers_.reserve(dims.size() - 1);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    DenseLayer layer;
    layer.weights = linalg::Matrix(dims[l + 1], dims[l]);
    // Xavier/Glorot uniform initialization.
    const float bound = std::sqrt(
        6.0f / static_cast<float>(dims[l] + dims[l + 1]));
    layer.weights.randomize_uniform(init_rng, bound);
    layer.bias.assign(dims[l + 1], 0.0f);
    layer.grad_weights = linalg::Matrix(dims[l + 1], dims[l]);
    layer.grad_bias.assign(dims[l + 1], 0.0f);
    layer.optimizer =
        Adam(layer.weights.size() + layer.bias.size(), config_.adam);
    layers_.push_back(std::move(layer));
  }
  // Keep the output ReLU out of its dead region (see DnnConfig).
  layers_.back().bias[0] = config_.output_bias_init;
  // Size the shared scratch workspace: activations[l] is the input of layer
  // l; activations[dims.size()-1] is the network output.
  scratch_.activations.resize(dims.size());
  scratch_.grads.resize(dims.size());
  scratch_.dropout_mask.resize(dims.size());
  scratch_.pre_act.resize(layers_.size());
  for (std::size_t l = 0; l < dims.size(); ++l) {
    scratch_.activations[l].assign(dims[l], 0.0f);
    scratch_.grads[l].assign(dims[l], 0.0f);
    scratch_.dropout_mask[l].assign(dims[l], 1);
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    scratch_.pre_act[l].assign(dims[l + 1], 0.0f);
  }
}

std::unique_ptr<RecModel> DnnModel::clone() const {
  return std::make_unique<DnnModel>(*this);
}

float DnnModel::forward(data::UserId user, data::ItemId item, bool training,
                        Rng* rng, Workspace& ws) const {
  REX_REQUIRE(user < config_.n_users && item < config_.n_items,
              "prediction index out of range");
  const std::size_t k = config_.embedding_dim;
  auto& input = ws.activations[0];
  const auto xu = user_embeddings_.row(user);
  const auto yi = item_embeddings_.row(item);
  std::copy(xu.begin(), xu.end(), input.begin());
  std::copy(yi.begin(), yi.end(), input.begin() + static_cast<long>(k));

  const auto apply_dropout = [&](std::vector<float>& a,
                                 std::vector<std::uint8_t>& mask, float rate) {
    const float keep = 1.0f - rate;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (rng->bernoulli(rate)) {
        mask[i] = 0;
        a[i] = 0.0f;
      } else {
        mask[i] = 1;
        a[i] /= keep;  // inverted dropout: expectation preserved
      }
    }
  };

  if (training && config_.dropout_embedding > 0.0f) {
    apply_dropout(input, ws.dropout_mask[0], config_.dropout_embedding);
  }

  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const DenseLayer& layer = layers_[l];
    auto& z = ws.pre_act[l];
    linalg::matvec(layer.weights, ws.activations[l], z);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += layer.bias[i];
    auto& out = ws.activations[l + 1];
    for (std::size_t i = 0; i < z.size(); ++i) {
      out[i] = z[i] > 0.0f ? z[i] : 0.0f;  // ReLU (also on the output unit)
    }
    // Dropout after the first two hidden layers only (§IV-A3b).
    if (training && l < 2 && l + 1 < layers_.size() &&
        config_.dropout_hidden > 0.0f) {
      apply_dropout(out, ws.dropout_mask[l + 1], config_.dropout_hidden);
    }
  }
  return ws.activations.back()[0];
}

void DnnModel::backward(data::UserId user, data::ItemId item,
                        float output_grad, Workspace& ws,
                        std::vector<float>& user_grad,
                        std::vector<float>& item_grad) {
  // Seed: dL/d(output activation).
  ws.grads.back()[0] = output_grad;

  for (std::size_t l = layers_.size(); l-- > 0;) {
    DenseLayer& layer = layers_[l];
    auto& g_out = ws.grads[l + 1];  // grad w.r.t. layer output activation
    const auto& z = ws.pre_act[l];

    // Undo dropout scaling (masks were only set where dropout applied).
    if (l < 2 && l + 1 < layers_.size() && config_.dropout_hidden > 0.0f) {
      const float keep = 1.0f - config_.dropout_hidden;
      for (std::size_t i = 0; i < g_out.size(); ++i) {
        g_out[i] = ws.dropout_mask[l + 1][i] ? g_out[i] / keep : 0.0f;
      }
    }
    // Through ReLU.
    for (std::size_t i = 0; i < g_out.size(); ++i) {
      if (z[i] <= 0.0f) g_out[i] = 0.0f;
    }
    // Accumulate parameter gradients; propagate to the layer input.
    linalg::rank1_update(layer.grad_weights, 1.0f, g_out,
                         ws.activations[l]);
    for (std::size_t i = 0; i < g_out.size(); ++i) {
      layer.grad_bias[i] += g_out[i];
    }
    linalg::matvec_transposed(layer.weights, g_out, ws.grads[l]);
  }

  // Input (embedding) gradient, through the embedding dropout.
  auto& g_in = ws.grads[0];
  if (config_.dropout_embedding > 0.0f) {
    const float keep = 1.0f - config_.dropout_embedding;
    for (std::size_t i = 0; i < g_in.size(); ++i) {
      g_in[i] = ws.dropout_mask[0][i] ? g_in[i] / keep : 0.0f;
    }
  }
  const std::size_t k = config_.embedding_dim;
  for (std::size_t i = 0; i < k; ++i) {
    user_grad[i] += g_in[i];
    item_grad[i] += g_in[k + i];
  }
  seen_user_[user] = 1;
  seen_item_[item] = 1;
}

void DnnModel::zero_layer_grads() {
  for (DenseLayer& layer : layers_) {
    std::ranges::fill(layer.grad_weights.flat(), 0.0f);
    std::ranges::fill(layer.grad_bias, 0.0f);
  }
}

void DnnModel::train_batch(std::span<const data::Rating> batch, Rng& rng) {
  if (batch.empty()) return;
  zero_layer_grads();
  const std::size_t k = config_.embedding_dim;

  // Per-row embedding gradient accumulators (a batch touches few rows).
  struct RowGrad {
    std::uint32_t row;
    std::vector<float> grad;
  };
  std::vector<RowGrad> user_grads, item_grads;
  const auto accumulate = [&](std::vector<RowGrad>& rows, std::uint32_t row)
      -> std::vector<float>& {
    for (RowGrad& rg : rows) {
      if (rg.row == row) return rg.grad;
    }
    rows.push_back(RowGrad{row, std::vector<float>(k, 0.0f)});
    return rows.back().grad;
  };

  const float inv_batch = 1.0f / static_cast<float>(batch.size());
  for (const data::Rating& r : batch) {
    const float prediction = forward(r.user, r.item, true, &rng, scratch_);
    // MSE: dL/do = 2 (o - target), averaged over the batch.
    const float output_grad = 2.0f * (prediction - r.value) * inv_batch;
    backward(r.user, r.item, output_grad, scratch_,
             accumulate(user_grads, r.user), accumulate(item_grads, r.item));
  }

  // Dense layer updates.
  for (DenseLayer& layer : layers_) {
    layer.optimizer.begin_step();
    layer.optimizer.update_rows(layer.weights.flat(),
                                layer.grad_weights.flat(), 0);
    layer.optimizer.update_rows(layer.grad_bias.empty()
                                    ? std::span<float>{}
                                    : std::span<float>(layer.bias),
                                std::span<const float>(layer.grad_bias),
                                layer.weights.size());
  }
  // Sparse embedding updates.
  user_emb_optimizer_.begin_step();
  for (const RowGrad& rg : user_grads) {
    user_emb_optimizer_.update_rows(user_embeddings_.row(rg.row), rg.grad,
                                    static_cast<std::size_t>(rg.row) * k);
  }
  item_emb_optimizer_.begin_step();
  for (const RowGrad& rg : item_grads) {
    item_emb_optimizer_.update_rows(item_embeddings_.row(rg.row), rg.grad,
                                    static_cast<std::size_t>(rg.row) * k);
  }
}

void DnnModel::train_epoch(std::span<const data::Rating> store, Rng& rng) {
  if (store.empty()) return;
  std::vector<data::Rating> batch(config_.batch_size);
  for (std::size_t b = 0; b < config_.batches_per_epoch; ++b) {
    for (data::Rating& r : batch) {
      r = store[rng.uniform(store.size())];
    }
    train_batch(batch, rng);
  }
}

void DnnModel::train_full_pass(std::span<const data::Rating> dataset,
                               Rng& rng) {
  std::vector<std::size_t> order(dataset.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  std::vector<data::Rating> batch;
  batch.reserve(config_.batch_size);
  for (std::size_t start = 0; start < order.size();
       start += config_.batch_size) {
    batch.clear();
    const std::size_t end =
        std::min(order.size(), start + config_.batch_size);
    for (std::size_t i = start; i < end; ++i) {
      batch.push_back(dataset[order[i]]);
    }
    train_batch(batch, rng);
  }
}

float DnnModel::predict(data::UserId user, data::ItemId item) const {
  return forward(user, item, false, nullptr, scratch_);
}

void DnnModel::merge(std::span<const MergeSource> sources,
                     double self_weight) {
  if (sources.empty()) return;
  std::vector<const DnnModel*> peers;
  peers.reserve(sources.size());
  double total_weight = self_weight;
  for (const MergeSource& s : sources) {
    const auto* peer = dynamic_cast<const DnnModel*>(s.model);
    REX_REQUIRE(peer != nullptr, "merge: model kind mismatch");
    REX_REQUIRE(peer->config_.n_users == config_.n_users &&
                    peer->config_.n_items == config_.n_items &&
                    peer->config_.embedding_dim == config_.embedding_dim &&
                    peer->config_.hidden == config_.hidden,
                "merge: DNN shape mismatch");
    peers.push_back(peer);
    total_weight += s.weight;
  }
  REX_REQUIRE(total_weight > 0.0, "merge: non-positive total weight");

  // MLP weights: every peer participates (all nodes train the full MLP).
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const float w_self = static_cast<float>(self_weight / total_weight);
    linalg::scale(layers_[l].weights.flat(), w_self);
    linalg::scale(std::span<float>(layers_[l].bias), w_self);
    for (std::size_t s = 0; s < peers.size(); ++s) {
      const float w = static_cast<float>(sources[s].weight / total_weight);
      linalg::axpy(w, peers[s]->layers_[l].weights.flat(),
                   layers_[l].weights.flat());
      linalg::axpy(w, peers[s]->layers_[l].bias, layers_[l].bias);
    }
  }

  // Embedding rows: only holders participate (same policy as MF, §III-C2).
  const auto merge_rows = [&](linalg::Matrix& mine,
                              std::vector<std::uint8_t>& seen,
                              auto member_matrix, auto member_mask) {
    std::vector<float> accum(config_.embedding_dim);
    for (std::size_t row = 0; row < mine.rows(); ++row) {
      double total = seen[row] ? self_weight : 0.0;
      for (std::size_t s = 0; s < peers.size(); ++s) {
        if ((peers[s]->*member_mask)[row]) total += sources[s].weight;
      }
      if (total <= 0.0) continue;
      std::ranges::fill(accum, 0.0f);
      if (seen[row]) {
        linalg::axpy(static_cast<float>(self_weight / total), mine.row(row),
                     accum);
      }
      for (std::size_t s = 0; s < peers.size(); ++s) {
        if (!(peers[s]->*member_mask)[row]) continue;
        linalg::axpy(static_cast<float>(sources[s].weight / total),
                     (peers[s]->*member_matrix).row(row), accum);
        seen[row] = 1;
      }
      std::copy(accum.begin(), accum.end(), mine.row(row).begin());
    }
  };
  merge_rows(user_embeddings_, seen_user_, &DnnModel::user_embeddings_,
             &DnnModel::seen_user_);
  merge_rows(item_embeddings_, seen_item_, &DnnModel::item_embeddings_,
             &DnnModel::seen_item_);
}

Bytes DnnModel::serialize() const {
  serialize::BinaryWriter w;
  w.str(kind());
  w.u32(static_cast<std::uint32_t>(config_.n_users));
  w.u32(static_cast<std::uint32_t>(config_.n_items));
  w.u32(static_cast<std::uint32_t>(config_.embedding_dim));
  w.u32(static_cast<std::uint32_t>(config_.hidden.size()));
  for (std::size_t h : config_.hidden) w.u32(static_cast<std::uint32_t>(h));
  w.f32_array(user_embeddings_.flat());
  w.f32_array(item_embeddings_.flat());
  for (const DenseLayer& layer : layers_) {
    w.f32_array(layer.weights.flat());
    w.f32_array(layer.bias);
  }
  const auto write_mask = [&w](const std::vector<std::uint8_t>& mask) {
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      byte |= static_cast<std::uint8_t>((mask[i] & 1) << (i % 8));
      if (i % 8 == 7 || i + 1 == mask.size()) {
        w.u8(byte);
        byte = 0;
      }
    }
  };
  write_mask(seen_user_);
  write_mask(seen_item_);
  return w.take();
}

void DnnModel::read_header(serialize::BinaryReader& r) const {
  REX_REQUIRE(r.str() == kind(), "payload is not a DNN model");
  REX_REQUIRE(r.u32() == config_.n_users && r.u32() == config_.n_items &&
                  r.u32() == config_.embedding_dim,
              "DNN model shape mismatch");
  REX_REQUIRE(r.u32() == config_.hidden.size(), "DNN depth mismatch");
  for (std::size_t h : config_.hidden) {
    REX_REQUIRE(r.u32() == h, "DNN hidden width mismatch");
  }
}

void DnnModel::require_wire_shape(BytesView payload) const {
  serialize::BinaryReader r(payload);
  read_header(r);
  // Every tensor as raw f32, then the two seen masks.
  REX_REQUIRE(r.remaining() == parameter_count() * sizeof(float) +
                                   (config_.n_users + 7) / 8 +
                                   (config_.n_items + 7) / 8,
              "DNN model blob length does not match its shape");
}

void DnnModel::deserialize(BytesView payload) {
  serialize::BinaryReader r(payload);
  read_header(r);
  r.f32_array(user_embeddings_.flat());
  r.f32_array(item_embeddings_.flat());
  for (DenseLayer& layer : layers_) {
    r.f32_array(layer.weights.flat());
    r.f32_array(layer.bias);
  }
  const auto read_mask = [&r](std::vector<std::uint8_t>& mask) {
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (i % 8 == 0) byte = r.u8();
      mask[i] = (byte >> (i % 8)) & 1;
    }
  };
  read_mask(seen_user_);
  read_mask(seen_item_);
  r.expect_end();
}

std::size_t DnnModel::parameter_count() const {
  std::size_t count = user_embeddings_.size() + item_embeddings_.size();
  for (const DenseLayer& layer : layers_) {
    count += layer.weights.size() + layer.bias.size();
  }
  return count;
}

std::size_t DnnModel::wire_size() const {
  return 4 + 4 * sizeof(std::uint32_t) +
         config_.hidden.size() * sizeof(std::uint32_t) +
         parameter_count() * sizeof(float) + (config_.n_users + 7) / 8 +
         (config_.n_items + 7) / 8;
}

std::size_t DnnModel::memory_footprint() const {
  std::size_t bytes = parameter_count() * sizeof(float);
  bytes += seen_user_.size() + seen_item_.size();
  bytes += user_emb_optimizer_.memory_footprint();
  bytes += item_emb_optimizer_.memory_footprint();
  for (const DenseLayer& layer : layers_) {
    bytes += layer.grad_weights.byte_size() +
             layer.grad_bias.size() * sizeof(float) +
             layer.optimizer.memory_footprint();
  }
  return bytes;
}

}  // namespace rex::ml
