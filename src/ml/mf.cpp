#include "ml/mf.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "serialize/binary.hpp"
#include "support/error.hpp"

namespace rex::ml {

namespace {

/// Bit-packs `n` flags, LSB first, eight to a byte (a short last byte).
template <typename Flag>
void write_mask(serialize::BinaryWriter& w, std::size_t n, Flag flag) {
  std::uint8_t byte = 0;
  for (std::size_t i = 0; i < n; ++i) {
    byte |= static_cast<std::uint8_t>((flag(i) & 1) << (i % 8));
    if (i % 8 == 7 || i + 1 == n) {
      w.u8(byte);
      byte = 0;
    }
  }
}

/// Reads `n` flags packed by write_mask, calling set(i, bit) for each.
template <typename Set>
void read_mask(serialize::BinaryReader& r, std::size_t n, Set set) {
  std::uint8_t byte = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) byte = r.u8();
    set(i, static_cast<std::uint8_t>((byte >> (i % 8)) & 1));
  }
}

}  // namespace

MfModel::MfModel(const MfConfig& config, Rng& init_rng)
    : config_(config),
      user_seed_(init_rng.next_u64()),
      item_embeddings_(config.n_items, config.embedding_dim),
      item_bias_(config.n_items, 0.0f),
      seen_item_(config.n_items, 0) {
  REX_REQUIRE(config.n_users > 0 && config.n_items > 0,
              "MF model dimensions must be positive");
  REX_REQUIRE(config.embedding_dim > 0, "embedding dim must be positive");
  item_embeddings_.randomize_normal(init_rng, config.init_stddev);
  if (rows_in_user_order()) {
    user_rows_.resize(config.n_users * config.embedding_dim);
    user_bias_.assign(config.n_users, 0.0f);
    seen_user_.assign(config.n_users, 0);
    for (data::UserId u = 0; u < config.n_users; ++u) {
      init_user_row(u, slot_row(u));
    }
  }
}

std::unique_ptr<RecModel> MfModel::clone() const {
  return std::make_unique<MfModel>(*this);
}

// ===== User-row store (DESIGN.md §10) =====

std::size_t MfModel::find_user_slot(data::UserId u) const {
  if (rows_in_user_order()) return u;
  const auto it = std::lower_bound(
      user_slots_.begin(), user_slots_.end(), u,
      [](const auto& entry, data::UserId user) { return entry.first < user; });
  if (it == user_slots_.end() || it->first != u) return kNoSlot;
  return it->second;
}

void MfModel::init_user_row(data::UserId u, std::span<float> out) const {
  Rng rng = Rng(user_seed_).derive(u);
  for (float& v : out) {
    v = static_cast<float>(rng.normal(0.0, config_.init_stddev));
  }
}

std::size_t MfModel::ensure_user_slot(data::UserId u) {
  if (rows_in_user_order()) return u;
  const auto it = std::lower_bound(
      user_slots_.begin(), user_slots_.end(), u,
      [](const auto& entry, data::UserId user) { return entry.first < user; });
  if (it != user_slots_.end() && it->first == u) return it->second;
  const std::size_t slot = user_bias_.size();
  user_slots_.insert(it, {u, static_cast<std::uint32_t>(slot)});
  user_rows_.resize(user_rows_.size() + config_.embedding_dim);
  init_user_row(u, slot_row(slot));
  user_bias_.push_back(0.0f);
  seen_user_.push_back(0);
  return slot;
}

std::span<const float> MfModel::user_row(data::UserId u) const {
  const std::size_t slot = find_user_slot(u);
  if (slot != kNoSlot) return slot_row(slot);
  // Unmaterialized read: the row a future write would materialize, computed
  // into per-thread scratch so pure reads never allocate per-node storage.
  static thread_local std::vector<float> scratch;
  scratch.resize(config_.embedding_dim);
  init_user_row(u, scratch);
  return scratch;
}

float MfModel::user_bias_at(data::UserId u) const {
  const std::size_t slot = find_user_slot(u);
  return slot == kNoSlot ? 0.0f : user_bias_[slot];
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
  const std::size_t slot = ensure_user_slot(u);
  const auto x = slot_row(slot);
  const auto y = item_embeddings_.row(i);
  float& bu = user_bias_[slot];
  // predict(u, i), term for term.
  const float error = rating.value - (config_.global_mean + bu +
                                      item_bias_[i] + linalg::dot(x, y));
  const float lr = config_.learning_rate;
  const float lambda = config_.regularization;

  bu += lr * (error - lambda * bu);
  item_bias_[i] += lr * (error - lambda * item_bias_[i]);

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
  seen_user_[slot] = 1;
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
  // Stores that materialize on demand walk the same user index space: a
  // seen row is always materialized, and a row nobody participates in is
  // skipped before any slot is created.
  std::vector<std::size_t> peer_slots(peers.size());
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    const bool self_seen = seen_user_slot(u) != kNoSlot;
    double total = self_seen ? self_weight : 0.0;
    for (std::size_t s = 0; s < peers.size(); ++s) {
      peer_slots[s] = peers[s]->seen_user_slot(u);
      if (peer_slots[s] != kNoSlot) total += sources[s].weight;
    }
    if (total <= 0.0) continue;
    const std::size_t slot = ensure_user_slot(u);
    const auto row = slot_row(slot);
    const float self_w =
        self_seen ? static_cast<float>(self_weight / total) : 0.0f;
    float bias = self_seen ? self_w * user_bias_[slot] : 0.0f;
    bool fused = false;  // row already rescaled into the weighted sum
    for (std::size_t s = 0; s < peers.size(); ++s) {
      if (peer_slots[s] == kNoSlot) continue;
      const MfModel& peer = *peers[s];
      const float w = static_cast<float>(sources[s].weight / total);
      if (!fused) {
        linalg::weighted_sum_inplace(row, self_w,
                                     peer.slot_row(peer_slots[s]), w);
        fused = true;
      } else {
        linalg::axpy(w, peer.slot_row(peer_slots[s]), row);
      }
      bias += w * peer.user_bias_[peer_slots[s]];
      seen_user_[slot] = 1;  // row knowledge propagates with the merge
    }
    // Self the only participant degenerates to w_self == 1: row and bias
    // are left exactly as they were.
    user_bias_[slot] = bias;
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

MfModel::UserImage MfModel::user_image() const {
  UserImage image;
  image.rows.resize(config_.n_users * config_.embedding_dim);
  image.bias.resize(config_.n_users);
  image.seen.resize(config_.n_users);
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    const auto row = std::span<float>(image.rows).subspan(
        u * config_.embedding_dim, config_.embedding_dim);
    const std::size_t slot = find_user_slot(u);
    if (slot == kNoSlot) {
      init_user_row(u, row);  // bias 0, unseen
      continue;
    }
    const auto src = slot_row(slot);
    std::copy(src.begin(), src.end(), row.begin());
    image.bias[u] = user_bias_[slot];
    image.seen[u] = seen_user_[slot];
  }
  return image;
}

void MfModel::load_user_image(const UserImage& image) {
  for (data::UserId u = 0; u < config_.n_users; ++u) {
    const std::size_t slot = ensure_user_slot(u);
    std::copy_n(image.rows.begin() +
                    static_cast<std::ptrdiff_t>(u * config_.embedding_dim),
                config_.embedding_dim, slot_row(slot).begin());
    user_bias_[slot] = image.bias[u];
    seen_user_[slot] = image.seen[u];
  }
}

namespace {

void write_f32_tensor(serialize::BinaryWriter& w, std::span<const float> t) {
  w.f32_array(t);
}

void read_f32_tensor(serialize::BinaryReader& r, std::span<float> t) {
  r.f32_array(t);
}

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

}  // namespace

Bytes MfModel::encode(const char* magic, TensorWriter write) const {
  const UserImage users = user_image();
  serialize::BinaryWriter w;
  w.str(magic);
  w.u32(static_cast<std::uint32_t>(config_.n_users));
  w.u32(static_cast<std::uint32_t>(config_.n_items));
  w.u32(static_cast<std::uint32_t>(config_.embedding_dim));
  write(w, users.rows);
  write(w, item_embeddings_.flat());
  write(w, users.bias);
  write(w, item_bias_);
  write_mask(w, config_.n_users, [&](std::size_t u) { return users.seen[u]; });
  write_mask(w, config_.n_items, [&](std::size_t i) { return seen_item_[i]; });
  return w.take();
}

bool MfModel::read_header(serialize::BinaryReader& r) const {
  const std::string magic = r.str();
  const bool quantized = magic == "mfq";
  REX_REQUIRE(quantized || magic == kind(), "payload is not an MF model");
  REX_REQUIRE(r.u32() == config_.n_users && r.u32() == config_.n_items &&
                  r.u32() == config_.embedding_dim,
              "MF model shape mismatch");
  return quantized;
}

void MfModel::decode(serialize::BinaryReader& r, TensorReader read) {
  UserImage users;
  users.rows.resize(config_.n_users * config_.embedding_dim);
  users.bias.resize(config_.n_users);
  users.seen.resize(config_.n_users);
  read(r, users.rows);
  read(r, item_embeddings_.flat());
  read(r, users.bias);
  read(r, item_bias_);
  read_mask(r, config_.n_users,
            [&](std::size_t u, std::uint8_t bit) { users.seen[u] = bit; });
  read_mask(r, config_.n_items,
            [&](std::size_t i, std::uint8_t bit) { seen_item_[i] = bit; });
  r.expect_end();
  load_user_image(users);
}

Bytes MfModel::serialize() const { return encode(kind(), write_f32_tensor); }

Bytes MfModel::serialize_quantized() const {
  return encode("mfq", write_q8_tensor);
}

void MfModel::deserialize(BytesView payload) {
  serialize::BinaryReader r(payload);
  decode(r, read_header(r) ? read_q8_tensor : read_f32_tensor);
}

void MfModel::require_wire_shape(BytesView payload) const {
  serialize::BinaryReader r(payload);
  const bool quantized = read_header(r);
  // Four tensors (user rows, item rows, user bias, item bias) as raw f32,
  // or as q8's (min, scale) pair plus one byte per value; then the masks.
  const std::size_t values = parameter_count();
  const std::size_t tensors = quantized ? 4 * 2 * sizeof(float) + values
                                        : values * sizeof(float);
  REX_REQUIRE(r.remaining() == tensors + (config_.n_users + 7) / 8 +
                                   (config_.n_items + 7) / 8,
              "MF model blob length does not match its shape");
}

std::size_t MfModel::parameter_count() const {
  // Logical (dense) parameter count, whichever user rows are materialized:
  // the wire codecs always carry the full tensors.
  return (config_.n_users + config_.n_items) * config_.embedding_dim +
         config_.n_users + config_.n_items;
}

std::size_t MfModel::wire_size() const {
  // kind string (1 length byte + 2 chars) + 3 u32 dims + parameters + masks.
  return 3 + 3 * sizeof(std::uint32_t) + parameter_count() * sizeof(float) +
         (config_.n_users + 7) / 8 + (config_.n_items + 7) / 8;
}

std::size_t MfModel::memory_footprint() const {
  // Actual allocation, not the logical dense size: with rows materialized
  // on demand this is what the per-node memory ledger (and the mega-scale
  // bytes/node gate) must see.
  return (item_embeddings_.size() + item_bias_.size() + user_rows_.size() +
          user_bias_.size()) *
             sizeof(float) +
         seen_item_.size() + seen_user_.size() +
         user_slots_.size() * sizeof(user_slots_[0]);
}

}  // namespace rex::ml
