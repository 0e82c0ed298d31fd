// Recommender model interface shared by the REX core.
//
// The core protocol (Algorithm 2) manipulates models through four verbs —
// merge, train, share(=serialize), test — regardless of model family. Both
// the matrix-factorization model (§II-A-b) and the DNN recommender (§II-A-c)
// implement this interface; the experiments swap them through a factory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace rex::ml {

class RecModel;

/// One neighbor contribution to a merge, with its mixing weight
/// (0.5 for RMW averaging; Metropolis–Hastings weights for D-PSGD).
struct MergeSource {
  const RecModel* model = nullptr;
  double weight = 0.0;
};

class RecModel {
 public:
  virtual ~RecModel() = default;

  /// Deep copy (models are value-ish but held by pointer for polymorphism).
  [[nodiscard]] virtual std::unique_ptr<RecModel> clone() const = 0;

  /// One epoch of local training: a *fixed* number of SGD steps drawn from
  /// `store` (the paper's fixed-batches rule, §III-E, keeps epoch time
  /// constant as the raw-data store grows). No-op on an empty store.
  virtual void train_epoch(std::span<const data::Rating> store, Rng& rng) = 0;

  /// One full shuffled pass over `dataset` (centralized baseline training).
  virtual void train_full_pass(std::span<const data::Rating> dataset,
                               Rng& rng) = 0;

  /// Predicted rating for (user, item); not clamped.
  [[nodiscard]] virtual float predict(data::UserId user,
                                      data::ItemId item) const = 0;

  /// Merges neighbor models into this one. `self_weight` is this node's own
  /// mixing weight; when a source lacks an embedding row that others have,
  /// only the holders participate for that row (paper §III-C2).
  virtual void merge(std::span<const MergeSource> sources,
                     double self_weight) = 0;

  /// Wire encoding of all parameters (the "share model" payload).
  [[nodiscard]] virtual Bytes serialize() const = 0;

  /// Quantized wire encoding (RexConfig::quantize_model_shares): a smaller
  /// blob that deserialize() must accept, trading bounded parameter error
  /// for bytes (DESIGN.md §7). The default is the exact encoding — model
  /// families without a compact codec keep working, just without savings.
  [[nodiscard]] virtual Bytes serialize_quantized() const {
    return serialize();
  }

  /// Replaces parameters from a wire encoding produced by a model of the
  /// same configuration; throws rex::Error on mismatch.
  virtual void deserialize(BytesView payload) = 0;

  /// Throws rex::Error unless deserialize() would accept `payload`, judged
  /// by structure alone: a codec magic this family reads, this model's
  /// shape in the header, and the byte length that shape implies for the
  /// codec. No parameter is decoded, so the enclave can refuse a peer's
  /// malformed blob on arrival and still deserialize each blob once, in
  /// the merge (DESIGN.md §8 "Byzantine accounting").
  virtual void require_wire_shape(BytesView payload) const = 0;

  /// Sample-steps one train_epoch() performs on a non-empty store (the
  /// fixed-batches constant; used for work accounting).
  [[nodiscard]] virtual std::size_t train_samples_per_epoch() const = 0;

  /// Approximate floating-point operations of one training sample-step
  /// (forward + backward + update); feeds the simulated-time cost model.
  [[nodiscard]] virtual std::size_t flops_per_sample() const = 0;

  /// Approximate flops of one prediction (forward pass only).
  [[nodiscard]] virtual std::size_t flops_per_prediction() const = 0;

  /// Number of learned scalars (the paper reports 215 001 for its DNN).
  [[nodiscard]] virtual std::size_t parameter_count() const = 0;

  /// Bytes of the serialized form (network accounting).
  [[nodiscard]] virtual std::size_t wire_size() const = 0;

  /// Resident bytes including optimizer state (enclave memory accounting).
  [[nodiscard]] virtual std::size_t memory_footprint() const = 0;

  [[nodiscard]] virtual const char* kind() const = 0;

  /// Root-mean-square error over `ratings`, with predictions clamped to the
  /// valid star range. Returns 0 for an empty set. Virtual so concrete
  /// models can run the loop with statically-bound predictions (the default
  /// pays one virtual predict() per rating, which is real time in the
  /// per-epoch test step at 10k nodes); overrides must keep the exact
  /// accumulation order — RMSE values feed the golden dumps.
  [[nodiscard]] virtual double rmse(std::span<const data::Rating> ratings)
      const;

  /// Catalog size: valid items are [0, item_count()). The serving path
  /// (DESIGN.md §9) sizes its score buffers off this.
  [[nodiscard]] virtual std::size_t item_count() const = 0;

  /// Fills `out` (size item_count()) with predict(user, i) for every item —
  /// the serving hot loop. Virtual for the same reason as rmse(): the
  /// default pays one virtual predict() per item; overrides must produce
  /// bit-identical scores since top-k answers are pinned by property tests
  /// against a brute-force reference.
  virtual void score_items(data::UserId user, std::span<float> out) const;
};

/// Creates per-node model instances. The scenario factory
/// (sim::prepare_scenario) hands every caller a copy of one model built
/// from the experiment seed and ignores `init_rng`; only hand-built rigs
/// seed a node's init from it.
using ModelFactory =
    std::function<std::unique_ptr<RecModel>(Rng& init_rng)>;

}  // namespace rex::ml
