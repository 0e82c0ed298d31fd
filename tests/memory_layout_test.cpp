// Memory layout primitives of the mega-scale profile (DESIGN.md §10):
// ObjectArena index/address stability, the sharded BufferPool freelists,
// and the MF user-row store in both of its shapes (rows materialized up
// front in user order, or on demand) — including the contract that the
// shape never changes a value or a byte.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "ml/mf.hpp"
#include "support/arena.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"

namespace rex {
namespace {

// ===== ObjectArena =====

struct Tracked {
  static inline std::vector<int>* destroyed = nullptr;
  int id;
  // Padding so several objects share a chunk but not a cache line — the
  // layout the arena actually holds hosts in.
  std::array<std::uint64_t, 9> payload{};

  explicit Tracked(int id_in) : id(id_in) { payload.fill(id_in); }
  ~Tracked() {
    if (destroyed != nullptr) destroyed->push_back(id);
  }
};

TEST(ObjectArena, AddressesAndIndicesStableAcrossChunkGrowth) {
  ObjectArena<Tracked> arena;
  std::vector<const Tracked*> addresses;
  // Cross several chunk boundaries (kChunkObjects = 1024).
  const int n = static_cast<int>(ObjectArena<Tracked>::kChunkObjects * 3 + 7);
  for (int i = 0; i < n; ++i) {
    addresses.push_back(&arena.emplace_back(i));
  }
  ASSERT_EQ(arena.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Same object at the same address, reachable by index.
    EXPECT_EQ(&arena[static_cast<std::size_t>(i)], addresses[i]);
    EXPECT_EQ(arena[static_cast<std::size_t>(i)].id, i);
    EXPECT_EQ(arena.at(static_cast<std::size_t>(i)).payload[3],
              static_cast<std::uint64_t>(i));
  }
  EXPECT_THROW((void)arena.at(arena.size()), Error);
}

TEST(ObjectArena, DestroysInReverseConstructionOrder) {
  std::vector<int> destroyed;
  Tracked::destroyed = &destroyed;
  {
    ObjectArena<Tracked> arena;
    for (int i = 0; i < 5; ++i) arena.emplace_back(i);
  }
  Tracked::destroyed = nullptr;
  ASSERT_EQ(destroyed.size(), 5u);
  EXPECT_EQ(destroyed, (std::vector<int>{4, 3, 2, 1, 0}));
}

// ===== Sharded BufferPool =====

TEST(BufferPool, SingleThreadRecyclesThroughOneShard) {
  // Each thread pins to one freelist shard, so single-threaded
  // acquire/release must behave exactly like the pre-sharding pool:
  // capacity cycles, stats count the reuse.
  BufferPool pool;
  Bytes first = pool.acquire();
  EXPECT_EQ(pool.stats().fresh, 1u);
  first.resize(256);
  pool.release(std::move(first));
  EXPECT_EQ(pool.free_buffers(), 1u);
  const Bytes second = pool.acquire();
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_TRUE(second.empty());         // cleared...
  EXPECT_GE(second.capacity(), 256u);  // ...but the capacity survived
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPool, PooledSharedBytesRoundTripsContentsUnderThreads) {
  // Which shard a buffer cycles through must never change the bytes a
  // consumer reads: hammer pooled payloads from several threads and check
  // every payload's contents.
  BufferPool pool;
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([w, &pool, &mismatches] {
      for (int round = 0; round < 500; ++round) {
        Bytes bytes = pool.acquire();
        bytes.assign(64, static_cast<std::uint8_t>(w * 50 + round % 50));
        SharedBytes payload = SharedBytes::pooled(pool, std::move(bytes));
        const SharedBytes copy = payload;  // second holder, same storage
        for (std::size_t i = 0; i < copy.size(); ++i) {
          if (copy[i] != static_cast<std::uint8_t>(w * 50 + round % 50)) {
            mismatches.fetch_add(1);
          }
        }
        payload = SharedBytes{};  // copy still holds the block
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  const BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.fresh + stats.reused, 4u * 500u);
  EXPECT_GT(stats.reused, 0u);  // the loops got warm
}

// ===== MF user-row store =====

/// More users than items: rows materialize on first write.
ml::MfConfig on_demand_config() {
  ml::MfConfig config;
  config.n_users = 200;
  config.n_items = 20;
  config.embedding_dim = 4;
  config.sgd_steps_per_epoch = 8;
  return config;
}

/// The same catalog with no more users than items: every row materialized
/// up front, in user order.
ml::MfConfig dense_config() {
  ml::MfConfig config = on_demand_config();
  config.n_users = config.n_items;
  return config;
}

TEST(MfUserRows, OnDemandMaterializationIsPerTouchedUser) {
  Rng rng(5);
  ml::MfModel model(on_demand_config(), rng);
  EXPECT_EQ(model.materialized_user_rows(), 0u);
  model.sgd_step({3, 1, 4.0f});
  model.sgd_step({3, 2, 2.0f});  // same user: no new row
  model.sgd_step({117, 0, 5.0f});
  EXPECT_EQ(model.materialized_user_rows(), 2u);
  EXPECT_TRUE(model.has_seen_user(3));
  EXPECT_TRUE(model.has_seen_user(117));
  EXPECT_FALSE(model.has_seen_user(4));

  Rng dense_rng(5);
  const ml::MfModel dense(dense_config(), dense_rng);
  EXPECT_EQ(dense.materialized_user_rows(), dense_config().n_users);
}

TEST(MfUserRows, OnDemandFootprintGrowsOnlyWithMaterializedRows) {
  const ml::MfConfig config = on_demand_config();
  Rng rng(5);
  ml::MfModel model(config, rng);
  // Item tensors only: k floats, a bias and a seen byte per item.
  const std::size_t items =
      config.n_items * (config.embedding_dim * sizeof(float) +
                        sizeof(float) + 1);
  EXPECT_EQ(model.memory_footprint(), items);
  // One user row: k floats, a bias, a seen byte and its index entry.
  const std::size_t row = config.embedding_dim * sizeof(float) +
                          sizeof(float) + 1 +
                          sizeof(std::pair<data::UserId, std::uint32_t>);
  (void)model.predict(42, 3);  // reads never materialize
  EXPECT_EQ(model.memory_footprint(), items);
  model.sgd_step({42, 3, 4.0f});
  EXPECT_EQ(model.memory_footprint(), items + row);
  model.sgd_step({42, 5, 2.0f});  // same row
  EXPECT_EQ(model.memory_footprint(), items + row);
  model.sgd_step({7, 5, 2.0f});
  EXPECT_EQ(model.memory_footprint(), items + 2 * row);
  // The logical parameter count the paper's tables report is the dense
  // one, whatever is materialized.
  EXPECT_EQ(model.parameter_count(),
            (config.n_users + config.n_items) * (config.embedding_dim + 1));
}

TEST(MfUserRows, ShapesAgreeOnEverySharedUser) {
  // Row u starts from a stream keyed by the init seed and u alone: a model
  // that materializes up front and one that materializes on demand, built
  // from the same init stream, hold the same rows for every user id they
  // share — read before any write and after the same writes.
  Rng dense_rng(8);
  ml::MfModel dense(dense_config(), dense_rng);
  Rng on_demand_rng(8);
  ml::MfModel on_demand(on_demand_config(), on_demand_rng);
  const auto expect_same = [&](const char* when) {
    for (data::UserId u = 0; u < dense_config().n_users; ++u) {
      EXPECT_EQ(dense.has_seen_user(u), on_demand.has_seen_user(u))
          << when << " user " << u;
      for (data::ItemId i = 0; i < dense_config().n_items; ++i) {
        EXPECT_EQ(dense.predict(u, i), on_demand.predict(u, i))
            << when << " user " << u << ", item " << i;
      }
    }
  };
  expect_same("fresh");
  for (const data::Rating r : {data::Rating{3, 1, 4.0f},
                               data::Rating{19, 0, 5.0f},
                               data::Rating{3, 7, 1.5f},
                               data::Rating{0, 7, 2.5f}}) {
    dense.sgd_step(r);
    on_demand.sgd_step(r);
  }
  expect_same("trained");
}

TEST(MfUserRows, OnDemandBytesIndependentOfWriteOrder) {
  // Distinct users on distinct items: the steps commute, so two models
  // that materialize the rows in opposite orders hold the same values and
  // must encode them identically (the codecs write rows in user order).
  const std::vector<data::Rating> steps{
      {3, 1, 4.0f}, {117, 0, 5.0f}, {42, 7, 1.5f}};
  Rng forward_rng(5);
  ml::MfModel forward(on_demand_config(), forward_rng);
  for (const data::Rating& r : steps) forward.sgd_step(r);
  Rng backward_rng(5);
  ml::MfModel backward(on_demand_config(), backward_rng);
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    backward.sgd_step(*it);
  }
  EXPECT_EQ(forward.serialize(), backward.serialize());
  EXPECT_EQ(forward.serialize_quantized(), backward.serialize_quantized());
}

TEST(MfUserRows, UnmaterializedReadsMatchMaterializedValues) {
  // predict() on a never-written row computes its init values into
  // scratch; a peer that decodes the model's image materializes every row
  // with those values and must predict bit-identically.
  Rng rng(5);
  const ml::MfModel model(on_demand_config(), rng);
  Rng peer_rng(99);  // init overwritten by deserialize below
  ml::MfModel peer(on_demand_config(), peer_rng);
  peer.deserialize(model.serialize());
  EXPECT_EQ(peer.materialized_user_rows(), on_demand_config().n_users);
  for (const data::UserId u : {0u, 7u, 117u, 199u}) {
    for (const data::ItemId i : {0u, 9u, 19u}) {
      EXPECT_EQ(model.predict(u, i), peer.predict(u, i)) << u << "," << i;
    }
  }
}

TEST(MfUserRows, WireFormatsRoundTripThroughAnOnDemandPeer) {
  // A model with a few trained rows: its exact and quantized encodings
  // must round-trip byte-identically through a peer that has materialized
  // nothing yet.
  Rng rng(5);
  ml::MfModel model(on_demand_config(), rng);
  model.sgd_step({3, 1, 4.0f});
  model.sgd_step({117, 0, 5.0f});
  model.sgd_step({42, 7, 1.5f});

  const Bytes exact = model.serialize();
  {
    Rng peer_rng(11);
    ml::MfModel peer(on_demand_config(), peer_rng);
    peer.deserialize(exact);
    EXPECT_EQ(peer.serialize(), exact);
  }

  const Bytes quantized = model.serialize_quantized();
  {
    Rng peer_rng(13);
    ml::MfModel peer(on_demand_config(), peer_rng);
    peer.deserialize(quantized);
    Rng other_rng(14);
    ml::MfModel other(on_demand_config(), other_rng);
    other.deserialize(quantized);
    // Quantization is lossy once, then stable: both peers decoded the same
    // codes, so their re-encodings agree with each other.
    EXPECT_EQ(peer.serialize_quantized(), other.serialize_quantized());
    EXPECT_EQ(peer.serialize(), other.serialize());
  }
}

}  // namespace
}  // namespace rex
