#include "ml/mf.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "serialize/binary.hpp"
#include "support/error.hpp"

namespace rex::ml {

MfModel::MfModel(const MfConfig& config, Rng& init_rng)
    : config_(config),
      user_embeddings_(config.lazy_user_rows ? 0 : config.n_users,
                       config.embedding_dim),
      item_embeddings_(config.n_items, config.embedding_dim),
      user_bias_(config.lazy_user_rows ? 0 : config.n_users, 0.0f),
      item_bias_(config.n_items, 0.0f),
      seen_user_(config.lazy_user_rows ? 0 : config.n_users, 0),
      seen_item_(config.n_items, 0) {
  REX_REQUIRE(config.n_users > 0 && config.n_items > 0,
              "MF model dimensions must be positive");
  REX_REQUIRE(config.embedding_dim > 0, "embedding dim must be positive");
  if (!lazy()) user_embeddings_.randomize_normal(init_rng, config.init_stddev);
  item_embeddings_.randomize_normal(init_rng, config.init_stddev);
}

std::unique_ptr<RecModel> MfModel::clone() const {
  return std::make_unique<MfModel>(*this);
}

// ===== Lazy user-row store (DESIGN.md §10) =====

std::size_t MfModel::find_user_slot(data::UserId u) const {
  const auto it = std::lower_bound(
      user_slots_.begin(), user_slots_.end(), u,
      [](const auto& entry, data::UserId user) { return entry.first < user; });
  if (it == user_slots_.end() || it->first != u) return kNoSlot;
  return it->second;
}

void MfModel::seeded_user_row(data::UserId u, std::span<float> out) const {
  Rng rng = Rng(config_.lazy_init_seed).derive(u);
  for (float& v : out) {
    v = static_cast<float>(rng.normal(0.0, config_.init_stddev));
  }
}

std::size_t MfModel::ensure_user_slot(data::UserId u) {
  const auto it = std::lower_bound(
      user_slots_.begin(), user_slots_.end(), u,
      [](const auto& entry, data::UserId user) { return entry.first < user; });
  if (it != user_slots_.end() && it->first == u) return it->second;
  const std::size_t slot = lazy_user_bias_.size();
  user_slots_.insert(it, {u, static_cast<std::uint32_t>(slot)});
  lazy_user_rows_.resize(lazy_user_rows_.size() + config_.embedding_dim);
  seeded_user_row(u, std::span<float>(lazy_user_rows_)
                         .subspan(slot * config_.embedding_dim,
                                  config_.embedding_dim));
  lazy_user_bias_.push_back(0.0f);
  lazy_seen_user_.push_back(0);
  return slot;
}

std::span<const float> MfModel::user_row(data::UserId u) const {
  if (!lazy()) return user_embeddings_.row(u);
  const std::size_t slot = find_user_slot(u);
  if (slot != kNoSlot) {
    return std::span<const float>(lazy_user_rows_)
        .subspan(slot * config_.embedding_dim, config_.embedding_dim);
  }
  // Unmaterialized read: the row a future write would materialize, computed
  // into per-thread scratch so pure reads never allocate per-node storage.
  static thread_local std::vector<float> scratch;
  scratch.resize(config_.embedding_dim);
  seeded_user_row(u, scratch);
  return scratch;
}

std::span<float> MfModel::user_row_mut(data::UserId u) {
  if (!lazy()) return user_embeddings_.row(u);
  const std::size_t slot = ensure_user_slot(u);
  return std::span<float>(lazy_user_rows_)
      .subspan(slot * config_.embedding_dim, config_.embedding_dim);
}

float MfModel::user_bias_at(data::UserId u) const {
  if (!lazy()) return user_bias_[u];
  const std::size_t slot = find_user_slot(u);
  return slot == kNoSlot ? 0.0f : lazy_user_bias_[slot];
}

float& MfModel::user_bias_ref(data::UserId u) {
  if (!lazy()) return user_bias_[u];
  return lazy_user_bias_[ensure_user_slot(u)];
}

void MfModel::mark_user_seen(data::UserId u) {
  if (!lazy()) {
    seen_user_[u] = 1;
    return;
  }
  lazy_seen_user_[ensure_user_slot(u)] = 1;
}

float MfModel::predict(data::UserId user, data::ItemId item) const {
  REX_REQUIRE(user < config_.n_users && item < config_.n_items,
              "prediction index out of range");
  return config_.global_mean + user_bias_at(user) + item_bias_[item] +
         linalg::dot(user_row(user), item_embeddings_.row(item));
}

double MfModel::rmse(std::span<const data::Rating> ratings) const {
  if (ratings.empty()) return 0.0;
  double acc = 0.0;
  for (const data::Rating& r : ratings) {
    const float prediction = std::clamp(predict(r.user, r.item),
                                        data::kMinRating, data::kMaxRating);
    const double error = static_cast<double>(prediction) -
                         static_cast<double>(r.value);
    acc += error * error;
  }
  return std::sqrt(acc / static_cast<double>(ratings.size()));
}

void MfModel::score_items(data::UserId user, std::span<float> out) const {
  REX_REQUIRE(user < config_.n_users && out.size() == config_.n_items,
              "score buffer/catalog mismatch");
  const auto row = user_row(user);
  const float base = config_.global_mean + user_bias_at(user);
  for (data::ItemId i = 0; i < config_.n_items; ++i) {
    out[i] = base + item_bias_[i] + linalg::dot(row, item_embeddings_.row(i));
  }
}

void MfModel::sgd_step(const data::Rating& rating) {
  const auto u = rating.user;
  const auto i = rating.item;
  REX_REQUIRE(u < config_.n_users && i < config_.n_items,
              "rating index out of range");
  const float error = rating.value - predict(u, i);
  const float lr = config_.learning_rate;
  const float lambda = config_.regularization;

  float& bu = user_bias_ref(u);
  bu += lr * (error - lambda * bu);
  item_bias_[i] += lr * (error - lambda * item_bias_[i]);

  auto x = user_row_mut(u);
  auto y = item_embeddings_.row(i);
  if (config_.embedding_dim < linalg::kSimdThreshold) {
    // Paper-scale dims (k = 2..10) stay inline; same ops as the kernel.
    for (std::size_t l = 0; l < config_.embedding_dim; ++l) {
      const float x_old = x[l];
      x[l] += lr * (error * y[l] - lambda * x[l]);
      y[l] += lr * (error * x_old - lambda * y[l]);
    }
  } else {
    linalg::simd::mf_sgd_rows(x.data(), y.data(), config_.embedding_dim,
                              error, lr, lambda);
  }
  mark_user_seen(u);
  seen_item_[i] = 1;
}

void MfModel::train_epoch(std::span<const data::Rating> store, Rng& rng) {
  if (store.empty()) return;
  // Fixed number of SGD steps regardless of store size (§III-E): samples are
  // drawn uniformly with replacement so epoch cost never grows with the
  // accumulating raw-data store. The draws come first (the same calls in
  // the same order as drawing per step) so that each step can prefetch
  // what later steps touch: a grown store and the item tensors miss every
  // cache by the time a node's epoch comes round again.
  static thread_local std::vector<std::size_t> picks;
  picks.resize(config_.sgd_steps_per_epoch);
  for (std::size_t& pick : picks) pick = rng.uniform(store.size());
  constexpr std::size_t kAhead = 4;  // steps between prefetch and use
  for (std::size_t step = 0; step < picks.size(); ++step) {
    if (step + 2 * kAhead < picks.size()) {
      __builtin_prefetch(&store[picks[step + 2 * kAhead]]);
    }
    if (step + kAhead < picks.size()) {
      // Its store entry was prefetched kAhead steps ago. Out-of-range ids
      // are left for that step's sgd_step to reject.
      const data::ItemId item = store[picks[step + kAhead]].item;
      if (item < config_.n_items) {
        const float* row = item_embeddings_.row(item).data();
        __builtin_prefetch(row);
        __builtin_prefetch(row + config_.embedding_dim - 1);
        __builtin_prefetch(&item_bias_[item]);
      }
    }
    sgd_step(store[picks[step]]);
  }
}

void MfModel::train_full_pass(std::span<const data::Rating> dataset,
                              Rng& rng) {
  std::vector<std::size_t> order(dataset.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t idx : order) sgd_step(dataset[idx]);
}

void MfModel::merge(std::span<const MergeSource> sources, double self_weight) {
  if (sources.empty()) return;
  std::vector<const MfModel*> peers;
  peers.reserve(sources.size());
  for (const MergeSource& s : sources) {
    const auto* peer = dynamic_cast<const MfModel*>(s.model);
    REX_REQUIRE(peer != nullptr, "merge: model kind mismatch");
    REX_REQUIRE(peer->config_.n_users == config_.n_users &&
                    peer->config_.n_items == config_.n_items &&
                    peer->config_.embedding_dim == config_.embedding_dim,
                "merge: MF shape mismatch");
    peers.push_back(peer);
  }

  // User rows: only holders of a row participate; weights renormalize over
  // the participating subset (paper §III-C2). A row nobody has seen keeps
  // this node's (randomly initialized) values. The weighted average is
  // computed in place: the first participating peer folds the self term in
  // via one fused weighted_sum_inplace pass (dst = w_self*dst + w_peer*peer)
  // and later peers axpy on top — no zero-filled temp row, no copy-back.
  // The rounding sequence (one multiply per term, one add per sum step) is
  // identical to the old accumulator's, so merges are bit-stable.
  // Lazy stores walk the same dense index space: a seen row is always
  // materialized, so peer reads never hit the seeded-scratch path, and a
  // row nobody participates in is skipped before any slot is created.
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    const bool self_seen = has_seen_user(u);
    double total = self_seen ? self_weight : 0.0;
    for (std::size_t s = 0; s < peers.size(); ++s) {
      if (peers[s]->has_seen_user(u)) total += sources[s].weight;
    }
    if (total <= 0.0) continue;
    const auto row = user_row_mut(u);
    const float self_w =
        self_seen ? static_cast<float>(self_weight / total) : 0.0f;
    float bias = self_seen ? self_w * user_bias_at(u) : 0.0f;
    bool fused = false;  // row already rescaled into the weighted sum
    for (std::size_t s = 0; s < peers.size(); ++s) {
      if (!peers[s]->has_seen_user(u)) continue;
      const float w = static_cast<float>(sources[s].weight / total);
      if (!fused) {
        linalg::weighted_sum_inplace(row, self_w, peers[s]->user_row(u), w);
        fused = true;
      } else {
        linalg::axpy(w, peers[s]->user_row(u), row);
      }
      bias += w * peers[s]->user_bias_at(u);
      mark_user_seen(u);  // row knowledge propagates with the merge
    }
    // Self the only participant degenerates to w_self == 1: row and bias
    // are left exactly as they were.
    user_bias_ref(u) = bias;
  }

  // Item rows: identical policy.
  for (data::ItemId i = 0; i < config_.n_items; ++i) {
    double total = seen_item_[i] ? self_weight : 0.0;
    for (std::size_t s = 0; s < peers.size(); ++s) {
      if (peers[s]->seen_item_[i]) total += sources[s].weight;
    }
    if (total <= 0.0) continue;
    const auto row = item_embeddings_.row(i);
    const float self_w =
        seen_item_[i] ? static_cast<float>(self_weight / total) : 0.0f;
    float bias = seen_item_[i] ? self_w * item_bias_[i] : 0.0f;
    bool fused = false;
    for (std::size_t s = 0; s < peers.size(); ++s) {
      if (!peers[s]->seen_item_[i]) continue;
      const float w = static_cast<float>(sources[s].weight / total);
      if (!fused) {
        linalg::weighted_sum_inplace(row, self_w,
                                     peers[s]->item_embeddings_.row(i), w);
        fused = true;
      } else {
        linalg::axpy(w, peers[s]->item_embeddings_.row(i), row);
      }
      bias += w * peers[s]->item_bias_[i];
      seen_item_[i] = 1;
    }
    item_bias_[i] = bias;
  }
}

void MfModel::dense_user_image(std::vector<float>& rows,
                               std::vector<float>& bias,
                               std::vector<std::uint8_t>& seen) const {
  rows.resize(config_.n_users * config_.embedding_dim);
  bias.resize(config_.n_users);
  seen.resize(config_.n_users);
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    const auto src = user_row(u);
    std::copy(src.begin(), src.end(),
              rows.begin() +
                  static_cast<std::ptrdiff_t>(u * config_.embedding_dim));
    bias[u] = user_bias_at(u);
    seen[u] = has_seen_user(u) ? 1 : 0;
  }
}

Bytes MfModel::serialize() const {
  serialize::BinaryWriter w;
  w.str(kind());
  w.u32(static_cast<std::uint32_t>(config_.n_users));
  w.u32(static_cast<std::uint32_t>(config_.n_items));
  w.u32(static_cast<std::uint32_t>(config_.embedding_dim));
  std::vector<float> dense_rows, dense_bias;
  std::vector<std::uint8_t> dense_seen;
  if (lazy()) dense_user_image(dense_rows, dense_bias, dense_seen);
  const std::span<const float> urows =
      lazy() ? std::span<const float>(dense_rows) : user_embeddings_.flat();
  const std::vector<float>& ubias = lazy() ? dense_bias : user_bias_;
  const std::vector<std::uint8_t>& useen = lazy() ? dense_seen : seen_user_;
  w.f32_array(urows);
  w.f32_array(item_embeddings_.flat());
  w.f32_array(ubias);
  w.f32_array(item_bias_);
  // Seen masks, bit-packed.
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
  write_mask(useen);
  write_mask(seen_item_);
  return w.take();
}

void MfModel::deserialize(BytesView payload) {
  serialize::BinaryReader r(payload);
  const std::string magic = r.str();
  if (magic == "mfq") {
    deserialize_quantized(r);
    return;
  }
  if (magic == "mfs") {
    deserialize_sliced(r);
    return;
  }
  REX_REQUIRE(magic == kind(), "payload is not an MF model");
  REX_REQUIRE(r.u32() == config_.n_users && r.u32() == config_.n_items &&
                  r.u32() == config_.embedding_dim,
              "MF model shape mismatch");
  const auto read_mask = [&r](std::vector<std::uint8_t>& mask) {
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (i % 8 == 0) byte = r.u8();
      mask[i] = (byte >> (i % 8)) & 1;
    }
  };
  if (!lazy()) {
    r.f32_array(user_embeddings_.flat());
    r.f32_array(item_embeddings_.flat());
    r.f32_array(user_bias_);
    r.f32_array(item_bias_);
    read_mask(seen_user_);
    read_mask(seen_item_);
    r.expect_end();
    return;
  }
  // A full dense image materializes every row (the values must persist);
  // rows arrive in user order, so slots append without index shuffling.
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    r.f32_array(user_row_mut(u));
  }
  r.f32_array(item_embeddings_.flat());
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    user_bias_ref(u) = r.f32();
  }
  r.f32_array(item_bias_);
  std::vector<std::uint8_t> mask(config_.n_users);
  read_mask(mask);
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    lazy_seen_user_[find_user_slot(u)] = mask[u];
  }
  read_mask(seen_item_);
  r.expect_end();
}

namespace {

/// q8 affine tensor codec: (min, scale, one byte per value). scale is
/// chosen so code 255 hits max exactly; a constant tensor degenerates to
/// scale 0 and all-zero codes.
void write_q8_tensor(serialize::BinaryWriter& w, std::span<const float> t) {
  float lo = t.empty() ? 0.0f : t[0], hi = lo;
  for (float v : t) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const float scale = (hi - lo) / 255.0f;
  const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
  w.f32(lo);
  w.f32(scale);
  for (float v : t) {
    const float q = std::round((v - lo) * inv);
    w.u8(static_cast<std::uint8_t>(std::clamp(q, 0.0f, 255.0f)));
  }
}

void read_q8_tensor(serialize::BinaryReader& r, std::span<float> t) {
  const float lo = r.f32();
  const float scale = r.f32();
  const BytesView codes = r.raw(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = lo + scale * static_cast<float>(codes[i]);
  }
}

/// Rows r in [0, n) with r % count == index.
std::size_t slice_rows(std::size_t n, std::uint32_t count,
                       std::uint32_t index) {
  return n > index ? (n - index + count - 1) / count : 0;
}

}  // namespace

Bytes MfModel::serialize_quantized() const {
  serialize::BinaryWriter w;
  w.str("mfq");
  w.u32(static_cast<std::uint32_t>(config_.n_users));
  w.u32(static_cast<std::uint32_t>(config_.n_items));
  w.u32(static_cast<std::uint32_t>(config_.embedding_dim));
  std::vector<float> dense_rows, dense_bias;
  std::vector<std::uint8_t> dense_seen;
  if (lazy()) dense_user_image(dense_rows, dense_bias, dense_seen);
  const std::span<const float> urows =
      lazy() ? std::span<const float>(dense_rows) : user_embeddings_.flat();
  const std::vector<float>& ubias = lazy() ? dense_bias : user_bias_;
  const std::vector<std::uint8_t>& useen = lazy() ? dense_seen : seen_user_;
  write_q8_tensor(w, urows);
  write_q8_tensor(w, item_embeddings_.flat());
  write_q8_tensor(w, ubias);
  write_q8_tensor(w, item_bias_);
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
  write_mask(useen);
  write_mask(seen_item_);
  return w.take();
}

void MfModel::deserialize_quantized(serialize::BinaryReader& r) {
  REX_REQUIRE(r.u32() == config_.n_users && r.u32() == config_.n_items &&
                  r.u32() == config_.embedding_dim,
              "MF model shape mismatch");
  const auto read_mask = [&r](std::vector<std::uint8_t>& mask) {
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (i % 8 == 0) byte = r.u8();
      mask[i] = (byte >> (i % 8)) & 1;
    }
  };
  if (!lazy()) {
    read_q8_tensor(r, user_embeddings_.flat());
    read_q8_tensor(r, item_embeddings_.flat());
    read_q8_tensor(r, user_bias_);
    read_q8_tensor(r, item_bias_);
    read_mask(seen_user_);
    read_mask(seen_item_);
    r.expect_end();
    return;
  }
  // Quantized tensors decode as one block; scatter through the lazy store
  // (materializes every row, same as the dense codec).
  std::vector<float> dense_rows(config_.n_users * config_.embedding_dim);
  std::vector<float> dense_bias(config_.n_users);
  read_q8_tensor(r, dense_rows);
  read_q8_tensor(r, item_embeddings_.flat());
  read_q8_tensor(r, dense_bias);
  read_q8_tensor(r, item_bias_);
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    const auto dst = user_row_mut(u);
    std::copy_n(dense_rows.begin() +
                    static_cast<std::ptrdiff_t>(u * config_.embedding_dim),
                config_.embedding_dim, dst.begin());
    user_bias_ref(u) = dense_bias[u];
  }
  std::vector<std::uint8_t> mask(config_.n_users);
  read_mask(mask);
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    lazy_seen_user_[find_user_slot(u)] = mask[u];
  }
  read_mask(seen_item_);
  r.expect_end();
}

Bytes MfModel::serialize_sliced(std::uint32_t slice_count,
                                std::uint32_t slice_index) const {
  REX_REQUIRE(slice_count > 0 && slice_index < slice_count,
              "invalid MF slice spec");
  if (slice_count == 1) return serialize();  // slice 0 of 1 == full model
  serialize::BinaryWriter w;
  w.str("mfs");
  w.u32(static_cast<std::uint32_t>(config_.n_users));
  w.u32(static_cast<std::uint32_t>(config_.n_items));
  w.u32(static_cast<std::uint32_t>(config_.embedding_dim));
  w.u32(slice_count);
  w.u32(slice_index);
  // Slice rows are fully determined by (count, index): no ids on the wire.
  // Row/bias/seen reads go through the user accessors so lazy models emit
  // the same bytes as eager ones.
  const auto write_user_rows = [&] {
    std::uint8_t packed = 0;
    std::size_t bit = 0;
    for (std::size_t row = slice_index; row < config_.n_users;
         row += slice_count) {
      w.f32_array(user_row(static_cast<data::UserId>(row)));
      w.f32(user_bias_at(static_cast<data::UserId>(row)));
    }
    for (std::size_t row = slice_index; row < config_.n_users;
         row += slice_count) {
      const std::uint8_t bitval =
          has_seen_user(static_cast<data::UserId>(row)) ? 1 : 0;
      packed |= static_cast<std::uint8_t>(bitval << (bit % 8));
      if (bit % 8 == 7) {
        w.u8(packed);
        packed = 0;
      }
      ++bit;
    }
    if (bit % 8 != 0) w.u8(packed);
  };
  const auto write_rows = [&](const linalg::Matrix& emb,
                              const std::vector<float>& bias,
                              const std::vector<std::uint8_t>& mask,
                              std::size_t n) {
    std::uint8_t packed = 0;
    std::size_t bit = 0;
    for (std::size_t row = slice_index; row < n; row += slice_count) {
      w.f32_array(emb.row(row));
      w.f32(bias[row]);
    }
    for (std::size_t row = slice_index; row < n; row += slice_count) {
      packed |= static_cast<std::uint8_t>((mask[row] & 1) << (bit % 8));
      if (bit % 8 == 7) {
        w.u8(packed);
        packed = 0;
      }
      ++bit;
    }
    if (bit % 8 != 0) w.u8(packed);
  };
  write_user_rows();
  write_rows(item_embeddings_, item_bias_, seen_item_, config_.n_items);
  return w.take();
}

void MfModel::deserialize_sliced(serialize::BinaryReader& r) {
  REX_REQUIRE(r.u32() == config_.n_users && r.u32() == config_.n_items &&
                  r.u32() == config_.embedding_dim,
              "MF model shape mismatch");
  const std::uint32_t count = r.u32();
  const std::uint32_t index = r.u32();
  REX_REQUIRE(count > 1 && index < count, "invalid MF slice spec");
  const auto read_user_rows = [&] {
    // Same policy as the eager path: only slice rows keep their seen bits.
    // Unmaterialized non-slice rows are already unseen; materialized ones
    // clear per slot.
    std::fill(lazy_seen_user_.begin(), lazy_seen_user_.end(),
              std::uint8_t{0});
    for (std::size_t row = index; row < config_.n_users; row += count) {
      r.f32_array(user_row_mut(static_cast<data::UserId>(row)));
      user_bias_ref(static_cast<data::UserId>(row)) = r.f32();
    }
    const std::size_t rows = slice_rows(config_.n_users, count, index);
    std::uint8_t packed = 0;
    std::size_t bit = 0;
    for (std::size_t row = index; row < config_.n_users; row += count) {
      if (bit % 8 == 0) packed = r.u8();
      lazy_seen_user_[find_user_slot(static_cast<data::UserId>(row))] =
          (packed >> (bit % 8)) & 1;
      ++bit;
    }
    REX_CHECK(bit == rows, "MF slice row count mismatch");
  };
  const auto read_rows = [&](linalg::Matrix& emb, std::vector<float>& bias,
                             std::vector<std::uint8_t>& mask, std::size_t n) {
    // Non-slice rows must not participate in merges: clear every seen bit,
    // then restore the slice rows' bits from the wire.
    std::fill(mask.begin(), mask.end(), std::uint8_t{0});
    for (std::size_t row = index; row < n; row += count) {
      r.f32_array(emb.row(row));
      bias[row] = r.f32();
    }
    const std::size_t rows = slice_rows(n, count, index);
    std::uint8_t packed = 0;
    std::size_t bit = 0;
    for (std::size_t row = index; row < n; row += count) {
      if (bit % 8 == 0) packed = r.u8();
      mask[row] = (packed >> (bit % 8)) & 1;
      ++bit;
    }
    REX_CHECK(bit == rows, "MF slice row count mismatch");
  };
  if (lazy()) {
    read_user_rows();
  } else {
    read_rows(user_embeddings_, user_bias_, seen_user_, config_.n_users);
  }
  read_rows(item_embeddings_, item_bias_, seen_item_, config_.n_items);
  r.expect_end();
}

std::size_t MfModel::parameter_count() const {
  // Logical (dense) parameter count, independent of the lazy layout: the
  // wire codecs always carry the full tensors, and merge counters must stay
  // comparable across the knob.
  return (config_.n_users + config_.n_items) * config_.embedding_dim +
         config_.n_users + config_.n_items;
}

std::size_t MfModel::wire_size() const {
  // kind string (1 length byte + 2 chars) + 3 u32 dims + parameters + masks.
  return 3 + 3 * sizeof(std::uint32_t) + parameter_count() * sizeof(float) +
         (config_.n_users + 7) / 8 + (config_.n_items + 7) / 8;
}

std::size_t MfModel::memory_footprint() const {
  // Actual allocation, not the logical dense size: with lazy user rows this
  // is what the per-node memory ledger (and the mega-scale bytes/node gate)
  // must see.
  std::size_t bytes =
      (item_embeddings_.size() + item_bias_.size()) * sizeof(float) +
      seen_item_.size();
  if (lazy()) {
    bytes += (lazy_user_rows_.size() + lazy_user_bias_.size()) *
                 sizeof(float) +
             lazy_seen_user_.size() +
             user_slots_.size() * sizeof(user_slots_[0]);
  } else {
    bytes += (user_embeddings_.size() + user_bias_.size()) * sizeof(float) +
             seen_user_.size();
  }
  return bytes;
}

}  // namespace rex::ml
