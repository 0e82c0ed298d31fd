// ML tests: MF and DNN learn planted structure, serialization round-trips,
// merge semantics (masked rows, Metropolis–Hastings weights), Adam
// convergence, and the fixed-batches epoch rule.
#include <gtest/gtest.h>

#include <cmath>

#include "data/movielens.hpp"
#include "linalg/vector_ops.hpp"
#include "ml/adam.hpp"
#include "ml/dnn.hpp"
#include "ml/mf.hpp"
#include "support/error.hpp"

namespace rex::ml {
namespace {

data::Dataset small_dataset(std::size_t users = 40, std::size_t items = 120,
                            std::size_t ratings = 2400,
                            std::uint64_t seed = 7) {
  data::SyntheticConfig config;
  config.n_users = users;
  config.n_items = items;
  config.n_ratings = ratings;
  config.seed = seed;
  return data::generate_synthetic(config);
}

MfConfig mf_config(const data::Dataset& d) {
  MfConfig config;
  config.n_users = d.n_users;
  config.n_items = d.n_items;
  config.global_mean = static_cast<float>(d.mean_rating());
  return config;
}

TEST(Adam, MinimizesQuadratic) {
  // Minimize f(w) = (w - 3)^2 elementwise.
  AdamParams params;
  params.learning_rate = 0.1f;
  params.weight_decay = 0.0f;
  Adam adam(4, params);
  std::vector<float> w(4, 0.0f);
  std::vector<float> g(4);
  for (int step = 0; step < 300; ++step) {
    for (std::size_t i = 0; i < w.size(); ++i) g[i] = 2.0f * (w[i] - 3.0f);
    adam.begin_step();
    adam.update(w, g);
  }
  for (float v : w) EXPECT_NEAR(v, 3.0f, 0.05f);
}

TEST(Adam, SparseRowUpdateMatchesDenseForTouchedRows) {
  AdamParams params;
  params.weight_decay = 0.0f;
  Adam dense(6, params);
  Adam sparse(6, params);
  std::vector<float> wd(6, 1.0f), ws(6, 1.0f);
  const std::vector<float> g{0.5f, -0.5f, 0.25f};
  for (int step = 0; step < 10; ++step) {
    std::vector<float> full_grad(6, 0.0f);
    std::copy(g.begin(), g.end(), full_grad.begin() + 3);
    dense.begin_step();
    dense.update(wd, full_grad);
    sparse.begin_step();
    sparse.update_rows(std::span<float>(ws).subspan(3, 3), g, 3);
  }
  // Untouched rows: dense applied zero-gradient updates but weight decay is
  // zero, so they only differ by the (zero) moment updates -> identical.
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(wd[i], ws[i], 1e-6f);
}

TEST(Adam, RequiresBeginStep) {
  Adam adam(2, {});
  std::vector<float> w(2), g(2);
  EXPECT_THROW(adam.update(w, g), Error);
}

TEST(Adam, BoundsChecked) {
  Adam adam(4, {});
  adam.begin_step();
  std::vector<float> w(3), g(3);
  EXPECT_THROW(adam.update_rows(w, g, 2), Error);  // 2+3 > 4
  std::vector<float> g2(2);
  EXPECT_THROW(adam.update_rows(w, g2, 0), Error);  // size mismatch
}

TEST(Mf, PredictionUsesAllTerms) {
  const data::Dataset d = small_dataset();
  Rng rng(1);
  MfConfig config = mf_config(d);
  config.init_stddev = 0.0f;  // zero embeddings -> prediction = mean
  MfModel model(config, rng);
  EXPECT_NEAR(model.predict(0, 0), config.global_mean, 1e-6f);
}

TEST(Mf, SgdStepReducesError) {
  const data::Dataset d = small_dataset();
  Rng rng(2);
  MfModel model(mf_config(d), rng);
  const data::Rating r = d.ratings.front();
  const float before = std::fabs(model.predict(r.user, r.item) - r.value);
  for (int i = 0; i < 50; ++i) model.sgd_step(r);
  const float after = std::fabs(model.predict(r.user, r.item) - r.value);
  EXPECT_LT(after, before);
  EXPECT_TRUE(model.has_seen_user(r.user));
  EXPECT_TRUE(model.has_seen_item(r.item));
}

TEST(Mf, CentralizedTrainingConverges) {
  const data::Dataset d = small_dataset(60, 200, 5000);
  Rng rng(3);
  const data::Split split = data::train_test_split(d, 0.7, rng);
  MfModel model(mf_config(d), rng);
  const double initial_rmse = model.rmse(split.test);
  for (int epoch = 0; epoch < 30; ++epoch) {
    model.train_full_pass(split.train, rng);
  }
  const double final_rmse = model.rmse(split.test);
  EXPECT_LT(final_rmse, initial_rmse * 0.9);
  EXPECT_LT(final_rmse, 1.1);  // planted structure is learnable
}

TEST(Mf, FixedStepsPerEpochIgnoresStoreSize) {
  // The §III-E rule: epoch work is constant; training on a 10x larger store
  // must not change the number of SGD steps (verified via determinism: same
  // rng draws -> same amount of rng consumption).
  const data::Dataset d = small_dataset();
  Rng rng(4);
  MfConfig config = mf_config(d);
  config.sgd_steps_per_epoch = 100;
  MfModel model(config, rng);
  Rng t1(9), t2(9);
  auto m1 = model.clone();
  auto m2 = model.clone();
  m1->train_epoch(std::span<const data::Rating>(d.ratings).subspan(0, 50), t1);
  m2->train_epoch(d.ratings, t2);
  // Both consumed the same number of draws: next value identical.
  EXPECT_EQ(t1.next_u64(), t2.next_u64());
}

TEST(Mf, TrainEpochIsTheSampledSgdStepLoop) {
  // train_epoch draws its samples up front and prefetches ahead of its
  // steps; model and rng must end bit-identical to drawing and stepping
  // one sample at a time, in both user-row shapes: fewer users than items
  // (rows materialized up front) and more (rows materialized on demand).
  for (const bool on_demand : {false, true}) {
    const data::Dataset d =
        on_demand ? small_dataset(120, 40) : small_dataset();
    for (const std::size_t dim :
         {std::size_t{2}, std::size_t{10}, linalg::kSimdThreshold}) {
      // Stores smaller and larger than the 200 steps of an epoch.
      for (const std::size_t store_size :
           {std::size_t{30}, d.ratings.size()}) {
        SCOPED_TRACE(testing::Message()
                     << "on demand " << on_demand << ", dim " << dim
                     << ", store " << store_size);
        MfConfig config = mf_config(d);
        config.embedding_dim = dim;
        config.sgd_steps_per_epoch = 200;
        Rng init(6);
        MfModel model(config, init);
        ASSERT_EQ(model.materialized_user_rows(),
                  on_demand ? 0 : config.n_users);
        MfModel reference = model;
        const auto store =
            std::span<const data::Rating>(d.ratings).first(store_size);
        Rng rng(21);
        Rng reference_rng(21);
        for (int epoch = 0; epoch < 3; ++epoch) {
          model.train_epoch(store, rng);
          for (std::size_t step = 0; step < config.sgd_steps_per_epoch;
               ++step) {
            reference.sgd_step(store[reference_rng.uniform(store.size())]);
          }
        }
        EXPECT_EQ(model.serialize(), reference.serialize());
        EXPECT_EQ(rng.next_u64(), reference_rng.next_u64());
      }
    }
  }
}

TEST(Mf, EmptyStoreIsNoop) {
  const data::Dataset d = small_dataset();
  Rng rng(5);
  MfModel model(mf_config(d), rng);
  const Bytes before = model.serialize();
  Rng train_rng(1);
  model.train_epoch({}, train_rng);
  EXPECT_EQ(model.serialize(), before);
}

TEST(Mf, SerializeRoundTrip) {
  const data::Dataset d = small_dataset();
  Rng rng(6);
  MfModel model(mf_config(d), rng);
  Rng train_rng(2);
  model.train_epoch(d.ratings, train_rng);
  const Bytes payload = model.serialize();
  EXPECT_EQ(payload.size(), model.wire_size());

  Rng rng2(77);
  MfModel restored(mf_config(d), rng2);
  restored.deserialize(payload);
  EXPECT_EQ(restored.serialize(), payload);
  EXPECT_EQ(restored.predict(3, 5), model.predict(3, 5));
}

TEST(Mf, DeserializeRejectsGarbage) {
  const data::Dataset d = small_dataset();
  Rng rng(7);
  MfModel model(mf_config(d), rng);
  EXPECT_THROW(model.deserialize(Bytes{1, 2, 3}), Error);
  // Wrong shape: model from a different item count.
  MfConfig other = mf_config(d);
  other.n_items = d.n_items + 1;
  Rng rng2(8);
  MfModel other_model(other, rng2);
  EXPECT_THROW(model.deserialize(other_model.serialize()), Error);

  // The structural check refuses the same blobs without decoding them,
  // and a blob of either codec one byte long or short.
  EXPECT_THROW(model.require_wire_shape(Bytes{1, 2, 3}), Error);
  EXPECT_THROW(model.require_wire_shape(other_model.serialize()), Error);
  for (Bytes blob : {model.serialize(), model.serialize_quantized()}) {
    EXPECT_NO_THROW(model.require_wire_shape(blob));
    blob.push_back(0);
    EXPECT_THROW(model.require_wire_shape(blob), Error);
    blob.resize(blob.size() - 2);
    EXPECT_THROW(model.require_wire_shape(blob), Error);
  }
}

TEST(Mf, QuantizedRoundTripWithinStep) {
  const data::Dataset d = small_dataset();
  Rng rng(61);
  MfModel model(mf_config(d), rng);
  Rng train_rng(62);
  model.train_epoch(d.ratings, train_rng);

  const Bytes exact = model.serialize();
  const Bytes quantized = model.serialize_quantized();
  // Each f32 travels as one u8 code; per-tensor (min, scale) headers are
  // amortized, so the blob lands near a quarter of the exact encoding.
  EXPECT_LT(quantized.size(), exact.size() / 3);

  Rng rng2(63);
  MfModel restored(mf_config(d), rng2);
  restored.deserialize(quantized);
  // Seen masks travel losslessly.
  for (data::UserId u = 0; u < d.n_users; ++u) {
    EXPECT_EQ(restored.has_seen_user(u), model.has_seen_user(u)) << u;
  }
  for (data::ItemId i = 0; i < d.n_items; ++i) {
    EXPECT_EQ(restored.has_seen_item(i), model.has_seen_item(i)) << i;
  }
  // q8 affine error is at most scale/2 per parameter; with init_stddev 0.1
  // embeddings the prediction error stays well under a tenth of a star.
  for (data::UserId u = 0; u < d.n_users; u += 7) {
    for (data::ItemId i = 0; i < d.n_items; i += 11) {
      EXPECT_NEAR(restored.predict(u, i), model.predict(u, i), 0.05f)
          << u << "," << i;
    }
  }
}

TEST(Mf, MergeAveragesSeenRows) {
  const data::Dataset d = small_dataset();
  Rng rng(9);
  MfConfig config = mf_config(d);
  MfModel a(config, rng);
  MfModel b(config, rng);
  const data::Rating r{5, 10, 4.0f};
  for (int i = 0; i < 20; ++i) {
    a.sgd_step(r);
    b.sgd_step(r);
  }
  // Merge 50/50 (the RMW rule): prediction for the seen pair must be the
  // average of the two models' predictions.
  const float pa = a.predict(5, 10);
  const float pb = b.predict(5, 10);
  const MergeSource src{&b, 0.5};
  a.merge(std::span<const MergeSource>(&src, 1), 0.5);
  // Embeddings mix non-linearly through the dot product; bias terms average
  // exactly, so allow a small tolerance.
  EXPECT_NEAR(a.predict(5, 10), (pa + pb) / 2.0f, 0.05f);
}

TEST(Mf, MergeTakesPeerRowWhenSelfUnseen) {
  const data::Dataset d = small_dataset();
  Rng rng(10);
  MfConfig config = mf_config(d);
  MfModel a(config, rng);
  MfModel b(config, rng);
  const data::Rating r{7, 3, 1.0f};
  for (int i = 0; i < 30; ++i) b.sgd_step(r);
  ASSERT_FALSE(a.has_seen_user(7));
  const float peer_prediction = b.predict(7, 3);
  const MergeSource src{&b, 0.25};  // weight magnitude must not matter
  a.merge(std::span<const MergeSource>(&src, 1), 0.75);
  EXPECT_NEAR(a.predict(7, 3), peer_prediction, 1e-5f);
  EXPECT_TRUE(a.has_seen_user(7));
  EXPECT_TRUE(a.has_seen_item(3));
}

TEST(Mf, MergeKeepsOwnRowWhenNobodySeen) {
  const data::Dataset d = small_dataset();
  Rng rng(11);
  MfConfig config = mf_config(d);
  MfModel a(config, rng);
  MfModel b(config, rng);
  const float before = a.predict(2, 2);
  const MergeSource src{&b, 0.5};
  a.merge(std::span<const MergeSource>(&src, 1), 0.5);
  EXPECT_EQ(a.predict(2, 2), before);
  EXPECT_FALSE(a.has_seen_user(2));
}

TEST(Mf, MergeRejectsShapeMismatch) {
  const data::Dataset d = small_dataset();
  Rng rng(12);
  MfConfig config = mf_config(d);
  MfModel a(config, rng);
  MfConfig other = config;
  other.embedding_dim = config.embedding_dim + 1;
  MfModel b(other, rng);
  const MergeSource src{&b, 0.5};
  EXPECT_THROW(a.merge(std::span<const MergeSource>(&src, 1), 0.5), Error);
}

TEST(Mf, ParameterAndWireSize) {
  const data::Dataset d = small_dataset();
  Rng rng(13);
  MfModel model(mf_config(d), rng);
  const std::size_t expected_params =
      (d.n_users + d.n_items) * 10 + d.n_users + d.n_items;
  EXPECT_EQ(model.parameter_count(), expected_params);
  EXPECT_EQ(model.serialize().size(), model.wire_size());
  EXPECT_GT(model.memory_footprint(), expected_params * sizeof(float) - 1);
}

TEST(Mf, RmseClampsPredictions) {
  const data::Dataset d = small_dataset();
  Rng rng(14);
  MfConfig config = mf_config(d);
  config.global_mean = 100.0f;  // force wild predictions
  MfModel model(config, rng);
  // Clamped to 5.0: error vs a 5.0 rating is 0.
  const std::vector<data::Rating> test{{0, 0, 5.0f}};
  EXPECT_NEAR(model.rmse(test), 0.0, 1e-6);
  // And rmse of an empty set is defined as 0.
  EXPECT_EQ(model.rmse({}), 0.0);
}

DnnConfig dnn_config(const data::Dataset& d) {
  DnnConfig config;
  config.n_users = d.n_users;
  config.n_items = d.n_items;
  config.embedding_dim = 8;
  config.hidden = {32, 16, 8, 4};
  config.batch_size = 16;
  config.batches_per_epoch = 8;
  config.adam.learning_rate = 1e-3f;  // faster for small tests
  return config;
}

TEST(Dnn, ParameterCountFormula) {
  const data::Dataset d = small_dataset();
  Rng rng(20);
  const DnnConfig config = dnn_config(d);
  DnnModel model(config, rng);
  std::size_t expected = (d.n_users + d.n_items) * config.embedding_dim;
  std::size_t in = 2 * config.embedding_dim;
  for (std::size_t h : config.hidden) {
    expected += in * h + h;
    in = h;
  }
  expected += in * 1 + 1;
  EXPECT_EQ(model.parameter_count(), expected);
}

TEST(Dnn, PaperScaleParameterCount) {
  // §IV-A3b: the paper's DNN has 215 001 parameters (610 users, 9000 items,
  // k=20). Our default hidden sizes land within 0.5% of that.
  Rng rng(21);
  DnnConfig config;
  config.n_users = 610;
  config.n_items = 9000;
  DnnModel model(config, rng);
  EXPECT_NEAR(static_cast<double>(model.parameter_count()), 215001.0,
              0.005 * 215001.0);
}

TEST(Dnn, TrainingReducesLoss) {
  const data::Dataset d = small_dataset(30, 80, 1500, 8);
  Rng rng(22);
  const data::Split split = data::train_test_split(d, 0.7, rng);
  DnnModel model(dnn_config(d), rng);
  const double before = model.rmse(split.train);
  Rng train_rng(5);
  for (int epoch = 0; epoch < 60; ++epoch) {
    model.train_epoch(split.train, train_rng);
  }
  EXPECT_LT(model.rmse(split.train), before * 0.9);
}

TEST(Dnn, SerializeRoundTrip) {
  const data::Dataset d = small_dataset();
  Rng rng(23);
  DnnModel model(dnn_config(d), rng);
  Rng train_rng(6);
  model.train_epoch(d.ratings, train_rng);
  const Bytes payload = model.serialize();
  EXPECT_EQ(payload.size(), model.wire_size());
  Rng rng2(24);
  DnnModel restored(dnn_config(d), rng2);
  restored.deserialize(payload);
  EXPECT_EQ(restored.serialize(), payload);
  EXPECT_EQ(restored.predict(1, 2), model.predict(1, 2));
}

TEST(Dnn, DeserializeRejectsMismatch) {
  const data::Dataset d = small_dataset();
  Rng rng(25);
  DnnModel model(dnn_config(d), rng);
  DnnConfig other = dnn_config(d);
  other.hidden = {32, 16, 8, 2};
  Rng rng2(26);
  DnnModel other_model(other, rng2);
  EXPECT_THROW(model.deserialize(other_model.serialize()), Error);
  // And MF payloads are rejected by kind.
  MfConfig mf;
  mf.n_users = d.n_users;
  mf.n_items = d.n_items;
  Rng rng3(27);
  MfModel mf_model(mf, rng3);
  EXPECT_THROW(model.deserialize(mf_model.serialize()), Error);

  // The structural check refuses the same blobs without decoding them,
  // and a blob one byte long or short.
  EXPECT_THROW(model.require_wire_shape(other_model.serialize()), Error);
  EXPECT_THROW(model.require_wire_shape(mf_model.serialize()), Error);
  Bytes blob = model.serialize();
  EXPECT_NO_THROW(model.require_wire_shape(blob));
  blob.push_back(0);
  EXPECT_THROW(model.require_wire_shape(blob), Error);
  blob.resize(blob.size() - 2);
  EXPECT_THROW(model.require_wire_shape(blob), Error);
}

TEST(Dnn, MergeMovesWeightsTowardPeer) {
  const data::Dataset d = small_dataset();
  Rng rng(28);
  const DnnConfig config = dnn_config(d);
  DnnModel a(config, rng);
  DnnModel b(config, rng);
  Rng train_rng(7);
  b.train_epoch(d.ratings, train_rng);
  const float pa = a.predict(0, 0);
  const float pb = b.predict(0, 0);
  // Note: prediction is non-linear in weights, so exact midpoint is not
  // guaranteed; check the merge changed a towards b's behaviour.
  const MergeSource src{&b, 0.5};
  a.merge(std::span<const MergeSource>(&src, 1), 0.5);
  const float merged = a.predict(0, 0);
  EXPECT_NE(merged, pa);
  (void)pb;
}

TEST(Dnn, MergeKindMismatchThrows) {
  const data::Dataset d = small_dataset();
  Rng rng(29);
  DnnModel a(dnn_config(d), rng);
  MfConfig mf;
  mf.n_users = d.n_users;
  mf.n_items = d.n_items;
  MfModel b(mf, rng);
  const MergeSource src{&b, 0.5};
  EXPECT_THROW(a.merge(std::span<const MergeSource>(&src, 1), 0.5), Error);
}

TEST(Dnn, CloneIsIndependent) {
  const data::Dataset d = small_dataset();
  Rng rng(30);
  DnnModel model(dnn_config(d), rng);
  auto copy = model.clone();
  Rng train_rng(8);
  model.train_epoch(d.ratings, train_rng);
  // The clone must not have moved.
  EXPECT_NE(copy->predict(0, 0), model.predict(0, 0));
  EXPECT_EQ(copy->kind(), std::string("dnn"));
}

TEST(Dnn, WireSizeDominatedByParameters) {
  // The network-volume claims (Fig 2/5) depend on model wire size being
  // ~4 bytes per parameter.
  const data::Dataset d = small_dataset();
  Rng rng(31);
  DnnModel model(dnn_config(d), rng);
  const double bytes_per_param =
      static_cast<double>(model.wire_size()) /
      static_cast<double>(model.parameter_count());
  EXPECT_GT(bytes_per_param, 3.9);
  EXPECT_LT(bytes_per_param, 4.3);
}

TEST(Models, RawDataVsModelSizeGap) {
  // The paper's core quantitative premise: at the evaluation's dimensions
  // (610 users, 9000 items — §IV-A1/3) a model is orders of magnitude
  // larger than the per-epoch raw-data share (300 items of 12 B).
  Rng rng(32);
  MfConfig mf_cfg;
  mf_cfg.n_users = 610;
  mf_cfg.n_items = 9000;
  MfModel mf(mf_cfg, rng);
  DnnConfig dnn_cfg;
  dnn_cfg.n_users = 610;
  dnn_cfg.n_items = 9000;
  DnnModel dnn(dnn_cfg, rng);
  const std::size_t rex_share_bytes = 300 * data::kRatingWireSize;
  EXPECT_GT(mf.wire_size(), 100 * rex_share_bytes);
  EXPECT_GT(dnn.wire_size(), 100 * rex_share_bytes);
}

}  // namespace
}  // namespace rex::ml
