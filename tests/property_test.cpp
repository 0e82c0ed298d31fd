// Property-based tests: parameterized sweeps (TEST_P) asserting invariants
// over many randomized inputs — wire-format round-trips, AEAD tamper
// resistance, ECDH key agreement, topology guarantees, partition
// conservation, rating quantization, and model-merge algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "core/payload.hpp"
#include "crypto/aead.hpp"
#include "crypto/x25519.hpp"
#include "data/movielens.hpp"
#include "data/partition.hpp"
#include "graph/topology.hpp"
#include "ml/mf.hpp"
#include "ml/topk.hpp"
#include "serialize/binary.hpp"
#include "data/compress.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace rex {
namespace {

// ===== Payload wire format =====

class PayloadRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PayloadRoundTrip, RandomRawDataPayloadSurvives) {
  Rng rng(GetParam());
  core::ProtocolPayload p;
  p.kind = core::PayloadKind::kRawData;
  p.epoch = rng.uniform(1u << 20);
  p.sender_degree = static_cast<std::uint32_t>(rng.uniform(64));
  const std::size_t count = rng.uniform(400);
  p.ratings.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    p.ratings.push_back(data::Rating{
        static_cast<data::UserId>(rng.uniform(10000)),
        static_cast<data::ItemId>(rng.uniform(30000)),
        data::quantize_rating(
            static_cast<float>(rng.uniform_real(0.0, 6.0)))});
  }
  const core::ProtocolPayload q = core::ProtocolPayload::decode(p.encode());
  EXPECT_EQ(q.kind, p.kind);
  EXPECT_EQ(q.epoch, p.epoch);
  EXPECT_EQ(q.sender_degree, p.sender_degree);
  EXPECT_EQ(q.ratings, p.ratings);
}

TEST_P(PayloadRoundTrip, RandomModelBlobSurvives) {
  Rng rng(GetParam() ^ 0xB10B);
  core::ProtocolPayload p;
  p.kind = core::PayloadKind::kModel;
  p.model_blob.resize(rng.uniform(5000));
  for (auto& b : p.model_blob) {
    b = static_cast<std::uint8_t>(rng.uniform(256));
  }
  const core::ProtocolPayload q = core::ProtocolPayload::decode(p.encode());
  EXPECT_EQ(q.model_blob, p.model_blob);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayloadRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 9));

// ===== Binary codec =====

class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodesBoundaryNeighborhood) {
  // Probe v-1, v, v+1 around each varint length boundary.
  const std::uint64_t base = GetParam();
  for (const std::uint64_t v :
       {base == 0 ? 0 : base - 1, base, base + 1}) {
    serialize::BinaryWriter w;
    w.varint(v);
    serialize::BinaryReader r(w.buffer());
    EXPECT_EQ(r.varint(), v);
    r.expect_end();
  }
}

INSTANTIATE_TEST_SUITE_P(
    LengthBoundaries, VarintRoundTrip,
    ::testing::Values(0ull, 1ull << 7, 1ull << 14, 1ull << 21, 1ull << 28,
                      1ull << 35, 1ull << 42, 1ull << 49, 1ull << 56,
                      ~0ull - 1));

class F32ArrayRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(F32ArrayRoundTrip, BulkBlockMatchesScalarEncoding) {
  Rng rng(GetParam() + 31);
  std::vector<float> values(GetParam());
  for (auto& v : values) {
    v = static_cast<float>(rng.normal(0.0, 10.0));
  }
  // Bulk write == per-element write, byte for byte.
  serialize::BinaryWriter bulk, scalar;
  bulk.f32_array(values);
  for (float v : values) scalar.f32(v);
  EXPECT_EQ(bulk.buffer(), scalar.buffer());
  // Bulk read returns the originals.
  std::vector<float> decoded(values.size());
  serialize::BinaryReader r(bulk.buffer());
  r.f32_array(decoded);
  r.expect_end();
  EXPECT_EQ(decoded, values);
}

INSTANTIATE_TEST_SUITE_P(Sizes, F32ArrayRoundTrip,
                         ::testing::Values(0, 1, 3, 64, 1023));

// ===== AEAD tamper resistance =====

class AeadTamper : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AeadTamper, AnySingleBitFlipIsRejected) {
  Rng rng(GetParam() ^ 0x7A317A31);
  crypto::ChaChaKey key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform(256));
  const crypto::ChaChaNonce nonce =
      crypto::nonce_from_sequence(rng.uniform(1u << 30), 0);
  Bytes aad(8), plaintext(1 + rng.uniform(512));
  for (auto& b : aad) b = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.uniform(256));

  const Bytes sealed = crypto::aead_seal(key, nonce, aad, plaintext);
  ASSERT_EQ(crypto::aead_open(key, nonce, aad, sealed).value(), plaintext);

  // Flip one random bit in 16 independent positions: every result must be
  // rejected (ciphertext and tag are both authenticated).
  for (int trial = 0; trial < 16; ++trial) {
    Bytes corrupted = sealed;
    const std::size_t byte = rng.uniform(corrupted.size());
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    EXPECT_FALSE(crypto::aead_open(key, nonce, aad, corrupted).has_value());
  }
  // Wrong AAD and wrong nonce are rejected too.
  Bytes other_aad = aad;
  other_aad[0] ^= 1;
  EXPECT_FALSE(crypto::aead_open(key, nonce, other_aad, sealed).has_value());
  EXPECT_FALSE(crypto::aead_open(key, crypto::nonce_from_sequence(
                                          rng.uniform(1u << 30), 1),
                                 aad, sealed)
                   .has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AeadTamper,
                         ::testing::Range<std::uint64_t>(1, 9));

// ===== X25519 key agreement =====

class EcdhAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdhAgreement, BothSidesDeriveTheSameSecret) {
  Rng rng(GetParam() * 2654435761u);
  crypto::X25519Key a{}, b{};
  for (auto& byte : a) byte = static_cast<std::uint8_t>(rng.uniform(256));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.uniform(256));
  const crypto::X25519Key pub_a = crypto::x25519_public_key(a);
  const crypto::X25519Key pub_b = crypto::x25519_public_key(b);
  crypto::X25519Key ab{}, ba{};
  ASSERT_TRUE(crypto::x25519_shared_secret(a, pub_b, ab));
  ASSERT_TRUE(crypto::x25519_shared_secret(b, pub_a, ba));
  EXPECT_EQ(ab, ba);
  // A third party with a different private key gets a different secret.
  crypto::X25519Key c{};
  for (auto& byte : c) byte = static_cast<std::uint8_t>(rng.uniform(256));
  crypto::X25519Key cb{};
  ASSERT_TRUE(crypto::x25519_shared_secret(c, pub_b, cb));
  EXPECT_NE(cb, ab);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdhAgreement,
                         ::testing::Range<std::uint64_t>(1, 9));

// ===== Topology invariants =====

struct TopologySweepParams {
  std::size_t nodes;
  std::uint64_t seed;
};

class SmallWorldSweepP
    : public ::testing::TestWithParam<TopologySweepParams> {};

TEST_P(SmallWorldSweepP, ConnectedWithPaperDegreeAndClustering) {
  const auto [nodes, seed] = GetParam();
  Rng rng(seed);
  const graph::Graph g = graph::make_small_world(
      {.nodes = nodes, .close_connections = 6, .far_probability = 0.03},
      rng);
  EXPECT_EQ(g.node_count(), nodes);
  EXPECT_TRUE(g.is_connected());
  // Rewiring preserves the edge count of the ring lattice: mean degree 6.
  EXPECT_NEAR(g.average_degree(), 6.0, 1e-9);
  // Small world signature (vs ER at the same density): high clustering.
  EXPECT_GT(g.average_clustering_coefficient(), 0.3);
  // No self-loops, symmetric adjacency.
  for (graph::NodeId v = 0; v < nodes; ++v) {
    for (graph::NodeId w : g.neighbors(v)) {
      EXPECT_NE(v, w);
      EXPECT_TRUE(g.has_edge(w, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, SmallWorldSweepP,
    ::testing::Values(TopologySweepParams{20, 1}, TopologySweepParams{50, 2},
                      TopologySweepParams{128, 3},
                      TopologySweepParams{610, 4}));

class ErdosRenyiSweepP
    : public ::testing::TestWithParam<TopologySweepParams> {};

TEST_P(ErdosRenyiSweepP, ConnectivityRepairedAndDegreeNearExpectation) {
  const auto [nodes, seed] = GetParam();
  Rng rng(seed);
  const double p = 0.05;
  const graph::Graph g = graph::make_erdos_renyi(
      {.nodes = nodes, .edge_probability = p, .ensure_connected = true},
      rng);
  EXPECT_TRUE(g.is_connected());
  const double expected_degree = p * static_cast<double>(nodes - 1);
  // Repair only adds edges, so the mean degree is at least ~binomial
  // expectation and not wildly above it.
  EXPECT_GE(g.average_degree(), expected_degree * 0.6);
  EXPECT_LE(g.average_degree(), expected_degree + 3.0);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, ErdosRenyiSweepP,
    ::testing::Values(TopologySweepParams{50, 5}, TopologySweepParams{128, 6},
                      TopologySweepParams{610, 7}));

TEST(MetropolisHastingsP, RowsAreSubStochasticAndSymmetricAcrossEdges) {
  Rng rng(11);
  const graph::Graph g = graph::make_erdos_renyi(
      {.nodes = 60, .edge_probability = 0.08, .ensure_connected = true},
      rng);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    double total = 0.0;
    for (graph::NodeId w : g.neighbors(v)) {
      const double vw =
          graph::metropolis_hastings_weight(g.degree(v), g.degree(w));
      const double wv =
          graph::metropolis_hastings_weight(g.degree(w), g.degree(v));
      EXPECT_DOUBLE_EQ(vw, wv);  // symmetric weights => doubly stochastic
      EXPECT_GT(vw, 0.0);
      total += vw;
    }
    // Self weight absorbs the remainder: neighbor mass stays below 1.
    EXPECT_LT(total, 1.0 + 1e-12);
  }
}

// ===== Dataset / partition conservation =====

class PartitionConservation : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(PartitionConservation, RoundRobinConservesEveryRating) {
  data::SyntheticConfig config;
  config.n_users = 61;
  config.n_items = 500;
  config.n_ratings = 3000;
  config.seed = 17;
  const data::Dataset dataset = data::generate_synthetic(config);
  Rng rng(18);
  const data::Split split = data::train_test_split(dataset, 0.7, rng);

  const std::size_t n_nodes = GetParam();
  const auto shards =
      data::partition_users_round_robin(dataset, split, n_nodes);
  ASSERT_EQ(shards.size(), n_nodes);

  // Every train/test rating lands on exactly one node, and each user's
  // ratings are co-located.
  std::size_t train_total = 0, test_total = 0;
  std::vector<int> user_node(config.n_users, -1);
  for (std::size_t node = 0; node < n_nodes; ++node) {
    train_total += shards[node].train.size();
    test_total += shards[node].test.size();
    for (const data::Rating& r : shards[node].train) {
      if (user_node[r.user] == -1) {
        user_node[r.user] = static_cast<int>(node);
      }
      EXPECT_EQ(user_node[r.user], static_cast<int>(node));
    }
  }
  EXPECT_EQ(train_total, split.train.size());
  EXPECT_EQ(test_total, split.test.size());
  // Balanced round-robin: node user counts differ by at most one.
  std::vector<std::size_t> users_per_node(n_nodes, 0);
  for (int node : user_node) {
    if (node >= 0) ++users_per_node[static_cast<std::size_t>(node)];
  }
  const auto [lo, hi] =
      std::minmax_element(users_per_node.begin(), users_per_node.end());
  EXPECT_LE(*hi - *lo, 1u);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, PartitionConservation,
                         ::testing::Values(2, 7, 50, 61));

class QuantizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantizeSweep, AlwaysOnHalfStarGridWithinBounds) {
  Rng rng(GetParam() + 100);
  for (int i = 0; i < 500; ++i) {
    const float raw = static_cast<float>(rng.normal(3.5, 2.5));
    const float q = data::quantize_rating(raw);
    EXPECT_GE(q, 0.5f);
    EXPECT_LE(q, 5.0f);
    const float doubled = q * 2.0f;
    EXPECT_FLOAT_EQ(doubled, std::round(doubled));  // half-star grid
    // Quantization moves the value by at most half a step (after clamping).
    if (raw >= 0.5f && raw <= 5.0f) {
      EXPECT_LE(std::abs(q - raw), 0.25f + 1e-5f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantizeSweep,
                         ::testing::Range<std::uint64_t>(1, 5));

class SyntheticSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SyntheticSweep, GeneratorRespectsRequestedShapeAtAnyDensity) {
  // Includes densities beyond the per-user ceiling, which must clamp
  // instead of hanging (regression for the quota-saturation bug).
  data::SyntheticConfig config;
  config.n_users = 30;
  config.n_items = 80;
  config.n_ratings = GetParam();
  config.min_ratings_per_user = 5;
  config.seed = 9;
  const data::Dataset d = data::generate_synthetic(config);
  EXPECT_EQ(d.n_users, config.n_users);
  EXPECT_EQ(d.n_items, config.n_items);
  EXPECT_LE(d.ratings.size(), config.n_users * config.n_items);
  // (user, item) pairs are unique.
  std::set<std::pair<data::UserId, data::ItemId>> seen;
  for (const data::Rating& r : d.ratings) {
    EXPECT_LT(r.user, d.n_users);
    EXPECT_LT(r.item, d.n_items);
    EXPECT_TRUE(seen.emplace(r.user, r.item).second);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, SyntheticSweep,
                         ::testing::Values(150, 600, 1200, 1500, 2400));

// ===== Model merge algebra =====

ml::MfConfig tiny_mf() {
  ml::MfConfig config;
  config.n_users = 12;
  config.n_items = 40;
  config.embedding_dim = 4;
  return config;
}

class MergeAlgebra : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeAlgebra, MergingWithSelfIsIdentity) {
  Rng rng(GetParam() + 40);
  ml::MfModel model(tiny_mf(), rng);
  data::Dataset d;
  d.n_users = 12;
  d.n_items = 40;
  Rng data_rng(GetParam() + 41);
  for (int i = 0; i < 60; ++i) {
    d.ratings.push_back(data::Rating{
        static_cast<data::UserId>(data_rng.uniform(12)),
        static_cast<data::ItemId>(data_rng.uniform(40)),
        data::quantize_rating(
            static_cast<float>(data_rng.uniform_real(0.5, 5.0)))});
  }
  Rng train_rng(GetParam() + 42);
  model.train_epoch(d.ratings, train_rng);

  const auto copy = model.clone();
  const ml::MergeSource source{copy.get(), 0.5};
  model.merge(std::span<const ml::MergeSource>(&source, 1), 0.5);
  // avg(x, x) == x for every prediction.
  for (data::UserId u = 0; u < 12; ++u) {
    for (data::ItemId i = 0; i < 40; i += 7) {
      EXPECT_NEAR(model.predict(u, i), copy->predict(u, i), 1e-5) << u;
    }
  }
}

TEST_P(MergeAlgebra, PairwiseAverageLandsBetweenTheInputs) {
  Rng rng_a(GetParam() + 50), rng_b(GetParam() + 51);
  ml::MfModel a(tiny_mf(), rng_a);
  ml::MfModel b(tiny_mf(), rng_b);
  // Make both models "know" every row so no mask renormalization applies.
  data::Dataset d;
  d.n_users = 12;
  d.n_items = 40;
  for (data::UserId u = 0; u < 12; ++u) {
    for (data::ItemId i = 0; i < 40; ++i) {
      d.ratings.push_back(
          data::Rating{u, i, data::quantize_rating(3.0f + (u + i) % 3)});
    }
  }
  Rng train_rng(GetParam() + 52);
  a.train_full_pass(d.ratings, train_rng);
  b.train_full_pass(d.ratings, train_rng);

  const auto before = a.clone();
  const ml::MergeSource source{&b, 0.5};
  a.merge(std::span<const ml::MergeSource>(&source, 1), 0.5);
  for (data::UserId u = 0; u < 12; u += 3) {
    for (data::ItemId i = 0; i < 40; i += 11) {
      const float lo = std::min(before->predict(u, i), b.predict(u, i));
      const float hi = std::max(before->predict(u, i), b.predict(u, i));
      // Bilinear interaction term keeps the average within a whisker of
      // the interval; biases are exactly averaged.
      EXPECT_GE(a.predict(u, i), lo - 0.1f);
      EXPECT_LE(a.predict(u, i), hi + 0.1f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeAlgebra,
                         ::testing::Range<std::uint64_t>(1, 7));


// ===== Compressed rating codec =====

class CompressCodec : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompressCodec, RoundTripsAsASortedMultiset) {
  Rng rng(GetParam() * 97 + 5);
  std::vector<data::Rating> batch;
  const std::size_t count = rng.uniform(500);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(data::Rating{
        static_cast<data::UserId>(rng.uniform(2000)),
        static_cast<data::ItemId>(rng.uniform(9000)),
        data::quantize_rating(
            static_cast<float>(rng.uniform_real(0.0, 6.0)))});
  }
  // Duplicates are legal (stateless sampling with replacement).
  if (!batch.empty()) batch.push_back(batch.front());

  serialize::BinaryWriter w;
  data::encode_ratings_compressed(w, batch);
  serialize::BinaryReader r(w.buffer());
  std::vector<data::Rating> decoded;
  data::decode_ratings_compressed(r, decoded);
  r.expect_end();

  // Same multiset, sorted order.
  const auto key = [](const data::Rating& x) {
    return std::make_tuple(x.user, x.item, x.value);
  };
  std::sort(batch.begin(), batch.end(),
            [&](const data::Rating& a, const data::Rating& b) {
              return key(a) < key(b);
            });
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(key(decoded[i]), key(batch[i])) << i;
  }
  // And the codec actually compresses MovieLens-shaped batches.
  if (batch.size() >= 50) {
    EXPECT_LT(w.size(), batch.size() * data::kRatingWireSize / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressCodec,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(CompressCodecEdge, EmptyBatch) {
  serialize::BinaryWriter w;
  data::encode_ratings_compressed(w, {});
  serialize::BinaryReader r(w.buffer());
  std::vector<data::Rating> decoded{data::Rating{}};
  data::decode_ratings_compressed(r, decoded);
  EXPECT_TRUE(decoded.empty());
  r.expect_end();
}

TEST(CompressCodecEdge, RejectsOffGridRating) {
  serialize::BinaryWriter w;
  const std::vector<data::Rating> off_grid{data::Rating{1, 2, 3.14f}};
  EXPECT_THROW(data::encode_ratings_compressed(w, off_grid), Error);
}

// ===== Non-IID partitioner =====

class TastePartition : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TastePartition, ConservesRatingsAndSortsCohortsByTaste) {
  data::SyntheticConfig config;
  config.n_users = 60;
  config.n_items = 300;
  config.n_ratings = 2400;
  config.bias_stddev = 1.0;  // pronounced taste differences
  config.seed = 23;
  const data::Dataset dataset = data::generate_synthetic(config);
  Rng rng(24);
  const data::Split split = data::train_test_split(dataset, 0.7, rng);

  const std::size_t n_nodes = GetParam();
  const auto taste =
      data::partition_users_by_taste(dataset, split, n_nodes);
  const auto round_robin =
      data::partition_users_round_robin(dataset, split, n_nodes);

  // Conservation: same totals as the IID placement.
  const auto train_total = [](const std::vector<data::NodeShard>& shards) {
    std::size_t total = 0;
    for (const data::NodeShard& s : shards) total += s.train.size();
    return total;
  };
  EXPECT_EQ(train_total(taste), train_total(round_robin));

  // The first node's cohort rates lower on average than the last node's
  // (cohorts are taste-sorted).
  const auto shard_mean = [](const data::NodeShard& shard) {
    double sum = 0.0;
    for (const data::Rating& r : shard.train) {
      sum += static_cast<double>(r.value);
    }
    return shard.train.empty() ? 0.0
                               : sum / static_cast<double>(
                                           shard.train.size());
  };
  EXPECT_LT(shard_mean(taste.front()), shard_mean(taste.back()));

  // Cohort spread: the by-taste split must produce a wider range of
  // per-node mean ratings than round-robin.
  const auto spread = [&](const std::vector<data::NodeShard>& shards) {
    double lo = 1e9, hi = -1e9;
    for (const data::NodeShard& shard : shards) {
      if (shard.train.empty()) continue;
      const double m = shard_mean(shard);
      lo = std::min(lo, m);
      hi = std::max(hi, m);
    }
    return hi - lo;
  };
  EXPECT_GT(spread(taste), spread(round_robin));
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, TastePartition,
                         ::testing::Values(4, 10, 30));

// ===== Adversarial fault schedules (DESIGN.md §8) =====

/// Small RMW cell for randomized schedules: RMW keeps training through
/// arbitrary loss, so every generated schedule terminates.
sim::Scenario fault_property_cell() {
  sim::Scenario s;
  s.dataset.n_users = 12;
  s.dataset.n_items = 80;
  s.dataset.n_ratings = 500;
  s.dataset.seed = 5;
  s.nodes = 0;  // one node per user
  s.topology = sim::TopologyKind::kSmallWorld;
  s.model = sim::ModelKind::kMf;
  s.mf_sgd_steps_per_epoch = 10;
  s.rex.sharing = core::SharingMode::kRawData;
  s.rex.algorithm = core::Algorithm::kRmw;
  s.rex.data_points_per_epoch = 10;
  s.engine_mode = sim::EngineMode::kEventDriven;
  s.epochs = 5;
  s.seed = 13;
  return s;
}

/// 2–5 random fault windows from the native-safe classes, all healing by
/// 0.6x the fault-free run length so the post-heal convergence invariant
/// stays armed.
sim::FaultSchedule random_fault_schedule(Rng& rng, double t_end) {
  sim::FaultSchedule schedule;
  schedule.seed = 1 + rng.uniform(1u << 20);
  schedule.check_interval_s = t_end / 8.0;
  const std::size_t count = 2 + rng.uniform(4);
  for (std::size_t i = 0; i < count; ++i) {
    const double a = rng.uniform_real(0.05, 0.35) * t_end;
    const double b = a + rng.uniform_real(0.05, 0.25) * t_end;
    const SimTime start{a};
    const SimTime end{std::min(b, 0.6 * t_end)};
    switch (rng.uniform(4)) {
      case 0:
        schedule.faults.push_back(sim::FaultSpec::loss(
            start, end, rng.uniform_real(0.05, 0.25)));
        break;
      case 1:
        schedule.faults.push_back(sim::FaultSpec::duplicate(
            start, end, rng.uniform_real(0.1, 0.3),
            /*node_fraction=*/rng.uniform_real(0.2, 0.6)));
        break;
      case 2:
        schedule.faults.push_back(
            sim::FaultSpec::partition(start, end, /*selector=*/i));
        break;
      default:
        schedule.faults.push_back(sim::FaultSpec::link_flap(
            start, end, /*period_s=*/0.05 * t_end,
            /*duty=*/rng.uniform_real(0.2, 0.6),
            /*edge_fraction=*/rng.uniform_real(0.3, 0.8),
            /*asymmetric=*/rng.bernoulli(0.5), /*selector=*/i));
        break;
    }
  }
  return schedule;
}

class AdversarialScheduleP : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AdversarialScheduleP, RandomScheduleUpholdsEveryInvariant) {
  const sim::Scenario base = fault_property_cell();
  sim::Scenario probe = base;
  const double t_end = sim::run_scenario(probe).total_time().seconds;
  ASSERT_GT(t_end, 0.0);

  Rng rng(GetParam() * 0x9E3779B97F4A7C15ull + 7);
  const sim::FaultSchedule schedule = random_fault_schedule(rng, t_end);

  // Every invariant violation throws rex::Error naming the offender; an
  // empty string means the schedule ran clean end to end.
  const auto violation = [&](const sim::FaultSchedule& candidate) {
    sim::Scenario run = base;
    run.faults = candidate;
    try {
      sim::ScenarioInputs inputs;
      sim::Simulator simulator = sim::make_scenario_simulator(run, inputs);
      simulator.run(run.epochs);
      return std::string{};
    } catch (const Error& e) {
      return std::string{e.what()};
    }
  };

  std::string failure = violation(schedule);
  if (failure.empty()) return;  // the property holds for this seed

  // Shrink greedily: drop one fault at a time while the violation still
  // reproduces, so the report names a minimal replayable schedule.
  sim::FaultSchedule minimal = schedule;
  bool shrunk = true;
  while (shrunk && minimal.faults.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < minimal.faults.size(); ++i) {
      sim::FaultSchedule candidate = minimal;
      candidate.faults.erase(candidate.faults.begin() +
                             static_cast<std::ptrdiff_t>(i));
      const std::string err = violation(candidate);
      if (!err.empty()) {
        minimal = std::move(candidate);
        failure = err;
        shrunk = true;
        break;
      }
    }
  }
  std::ostringstream replay;
  for (const sim::FaultSpec& f : minimal.faults) {
    replay << "  " << sim::to_string(f.kind) << " [" << f.start.seconds
           << ", " << f.end.seconds << ") p=" << f.probability << "\n";
  }
  FAIL() << "invariant violation (schedule seed " << minimal.seed
         << "): " << failure << "\nminimal schedule ("
         << minimal.faults.size() << " of " << schedule.faults.size()
         << " faults):\n"
         << replay.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialScheduleP,
                         ::testing::Range<std::uint64_t>(1, 9));

// ===== Top-k serving path (DESIGN.md §9) =====

/// Minimal RecModel whose scores are an arbitrary test-chosen vector: the
/// property drives TopKIndex with tie-heavy catalogs no trained model would
/// produce. Uses the default score_items (virtual predict per item), which
/// TopKIndex must reproduce bit-for-bit.
class FakeScoreModel final : public ml::RecModel {
 public:
  explicit FakeScoreModel(std::vector<float> scores)
      : scores_(std::move(scores)) {}

  [[nodiscard]] std::unique_ptr<RecModel> clone() const override {
    return std::make_unique<FakeScoreModel>(scores_);
  }
  void train_epoch(std::span<const data::Rating>, Rng&) override {}
  void train_full_pass(std::span<const data::Rating>, Rng&) override {}
  [[nodiscard]] float predict(data::UserId,
                              data::ItemId item) const override {
    return scores_[item];
  }
  void merge(std::span<const ml::MergeSource>, double) override {}
  [[nodiscard]] Bytes serialize() const override { return {}; }
  void deserialize(BytesView) override {}
  void require_wire_shape(BytesView) const override {}
  [[nodiscard]] std::size_t train_samples_per_epoch() const override {
    return 0;
  }
  [[nodiscard]] std::size_t flops_per_sample() const override { return 0; }
  [[nodiscard]] std::size_t flops_per_prediction() const override {
    return 1;
  }
  [[nodiscard]] std::size_t parameter_count() const override {
    return scores_.size();
  }
  [[nodiscard]] std::size_t wire_size() const override { return 0; }
  [[nodiscard]] std::size_t memory_footprint() const override { return 0; }
  [[nodiscard]] const char* kind() const override { return "fake"; }
  [[nodiscard]] std::size_t item_count() const override {
    return scores_.size();
  }

 private:
  std::vector<float> scores_;
};

/// One randomized top-k case: a (tie-heavy) score catalog, a k that may
/// exceed it, and an optional exclusion mask.
struct TopKCase {
  std::vector<float> scores;
  std::vector<std::uint8_t> mask;  // empty = no exclusions
  std::size_t k = 0;
};

/// Brute-force reference: full sort under the index's strict total order,
/// then slice. The partial_sort in TopKIndex must match this bitwise.
std::vector<ml::ScoredItem> brute_force_reference(const TopKCase& c) {
  std::vector<ml::ScoredItem> all;
  for (data::ItemId i = 0; i < c.scores.size(); ++i) {
    if (!c.mask.empty() && c.mask[i] != 0) continue;
    all.push_back({i, c.scores[i]});
  }
  std::sort(all.begin(), all.end(), ml::ranks_before);
  all.resize(std::min(c.k, all.size()));
  return all;
}

/// Empty string when TopKIndex matches the reference; a description of the
/// first divergence otherwise.
std::string topk_violation(const TopKCase& c) {
  const FakeScoreModel model(c.scores);
  ml::TopKIndex index;
  const auto got = index.query(model, 0, c.k, c.mask);
  const auto want = brute_force_reference(c);
  std::ostringstream err;
  if (got.size() != want.size()) {
    err << "size " << got.size() << " != " << want.size();
    return err.str();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i].item != want[i].item || got[i].score != want[i].score) {
      err << "rank " << i << ": got (" << got[i].item << ", "
          << got[i].score << ") want (" << want[i].item << ", "
          << want[i].score << ")";
      return err.str();
    }
  }
  return {};
}

class TopKProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopKProperty, BitwiseEqualToBruteForceSortAndSlice) {
  Rng rng(GetParam() * 0xD1B54A32D192ED03ull + 11);
  for (int trial = 0; trial < 40; ++trial) {
    TopKCase c;
    const std::size_t n = 1 + rng.uniform(60);
    c.scores.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Quantized to multiples of 0.5 in a narrow band: heavy score ties,
      // so the item-id tiebreak of the strict total order carries the
      // ranking most of the time.
      c.scores.push_back(
          0.5f * static_cast<float>(rng.uniform(8)));
    }
    // k sweeps through degenerate (0), partial, exact, and over-catalog.
    c.k = rng.uniform(2 * n + 2);
    if (rng.bernoulli(0.66)) {
      c.mask.assign(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        c.mask[i] = rng.bernoulli(0.4) ? 1 : 0;
      }
    }
    std::string failure = topk_violation(c);
    if (failure.empty()) continue;

    // Shrink greedily: drop one catalog item at a time (and its mask bit)
    // while the mismatch still reproduces, so the failure names a minimal
    // catalog.
    TopKCase minimal = c;
    bool shrunk = true;
    while (shrunk && minimal.scores.size() > 1) {
      shrunk = false;
      for (std::size_t i = 0; i < minimal.scores.size(); ++i) {
        TopKCase candidate = minimal;
        candidate.scores.erase(candidate.scores.begin() +
                               static_cast<std::ptrdiff_t>(i));
        if (!candidate.mask.empty()) {
          candidate.mask.erase(candidate.mask.begin() +
                               static_cast<std::ptrdiff_t>(i));
        }
        if (candidate.k > candidate.scores.size() + 1) {
          candidate.k = candidate.scores.size() + 1;
        }
        const std::string err = topk_violation(candidate);
        if (!err.empty()) {
          minimal = std::move(candidate);
          failure = err;
          shrunk = true;
          break;
        }
      }
    }
    std::ostringstream replay;
    replay << "k=" << minimal.k << " scores=[";
    for (std::size_t i = 0; i < minimal.scores.size(); ++i) {
      replay << (i > 0 ? ", " : "") << minimal.scores[i];
    }
    replay << "] mask=[";
    for (std::size_t i = 0; i < minimal.mask.size(); ++i) {
      replay << (i > 0 ? ", " : "") << int(minimal.mask[i]);
    }
    replay << "]";
    FAIL() << "top-k mismatch (trial " << trial << "): " << failure
           << "\nminimal case (" << minimal.scores.size() << " of "
           << c.scores.size() << " items): " << replay.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace rex
