// Unit tests for the support kernel: bytes/hex, RNG determinism and
// distribution sanity, simulated time, thread pool correctness, and the
// FlatSet32 duplicate filter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/flat_set32.hpp"
#include "support/rng.hpp"
#include "support/sim_clock.hpp"
#include "support/thread_pool.hpp"

namespace rex {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xAB, 0xFF, 0x7E};
  EXPECT_EQ(hex_encode(data), "0001abff7e");
  EXPECT_EQ(hex_decode("0001abff7e"), data);
  EXPECT_EQ(hex_decode("0001ABFF7E"), data);
}

TEST(Bytes, HexRejectsOddLength) {
  EXPECT_THROW(hex_decode("abc"), Error);
}

TEST(Bytes, HexRejectsBadDigit) {
  EXPECT_THROW(hex_decode("zz"), Error);
}

TEST(Bytes, StringConversionRoundTrip) {
  const std::string text = "rex attestation";
  EXPECT_EQ(to_string(to_bytes(text)), text);
}

TEST(Bytes, LittleEndianRoundTrip) {
  std::uint8_t buf[8];
  store_le32(buf, 0xDEADBEEFu);
  EXPECT_EQ(load_le32(buf), 0xDEADBEEFu);
  store_le64(buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(load_le64(buf), 0x0123456789ABCDEFull);
}

TEST(Bytes, FormatBytesPicksUnit) {
  EXPECT_EQ(format_bytes(12), "12 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3.5 * kMiB), "3.50 MiB");
  EXPECT_EQ(format_bytes(2.0 * kGiB), "2.00 GiB");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Rng, DerivedStreamsAreIndependent) {
  Rng parent(7);
  Rng s0 = parent.derive(0);
  Rng s1 = parent.derive(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (s0.next_u64() == s1.next_u64());
  EXPECT_LT(equal, 4);
  // Deriving again yields the identical stream.
  Rng s0_again = parent.derive(0);
  EXPECT_EQ(s0_again.next_u64(), Rng(7).derive(0).next_u64());
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.uniform01();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRejectsZeroBound) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform(0), Error);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 10 * 0.15);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(5);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits, 2500, 250);
}

TEST(SimTime, ArithmeticAndComparison) {
  const SimTime a{1.5}, b{2.5};
  EXPECT_EQ((a + b).seconds, 4.0);
  EXPECT_EQ((b - a).seconds, 1.0);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  SimTime c = a;
  c += b;
  EXPECT_EQ(c.seconds, 4.0);
  EXPECT_NEAR(SimTime{90.0}.minutes(), 1.5, 1e-12);
}

TEST(SimTime, Formatting) {
  EXPECT_EQ(format_time(SimTime{0.5e-4}), "50.0 us");
  EXPECT_EQ(format_time(SimTime{0.5}), "500.0 ms");
  EXPECT_EQ(format_time(SimTime{5.0}), "5.0 s");
  EXPECT_EQ(format_time(SimTime{600.0}), "10.0 min");
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.parallel_shards(100, [&](std::size_t i) {
      total += static_cast<long>(i);
    });
  }
  EXPECT_EQ(total.load(), 50L * (99 * 100 / 2));
}

TEST(ThreadPool, SingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_shards(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ShardsRunAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_shards(1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ShardsHandleEmptyTinyAndUnevenBatches) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_shards(0, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_shards(1, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 1);
  // Uneven work: one heavy shard must not starve the rest (stealing).
  std::atomic<long> total{0};
  pool.parallel_shards(64, [&](std::size_t i) {
    long local = 0;
    const long spins = i == 0 ? 20000 : 10;
    for (long s = 0; s < spins; ++s) local += s;
    total += local == -1 ? 0 : static_cast<long>(i);
  });
  EXPECT_EQ(total.load(), 64L * 63 / 2);
}

TEST(ThreadPool, ShardsPropagateExceptionsAndStayUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_shards(10,
                                    [&](std::size_t i) {
                                      if (i == 3) throw Error("boom");
                                    }),
               Error);
  std::atomic<int> count{0};
  pool.parallel_shards(10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

// ===== FlatSet32 (the raw-data store's duplicate filter) =====

/// The results of insert_batch over `keys`, in order.
std::vector<bool> batch_insert(FlatSet32& set,
                               const std::vector<std::uint32_t>& keys) {
  std::vector<bool> results;
  set.insert_batch(
      keys, [](std::uint32_t key) { return key; },
      [&](std::uint32_t, bool inserted) { results.push_back(inserted); });
  return results;
}

/// A cell id as TrustedNode::cell_id forms it, at the Table II catalogue
/// of 9,000 items: user x 9,000 + item.
std::uint32_t cell(std::uint32_t user, std::uint32_t item) {
  return user * 9000u + item;
}

TEST(FlatSet32, MembershipAndSize) {
  FlatSet32 set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.capacity(), 0u);
  EXPECT_FALSE(set.contains(cell(1, 2)));
  EXPECT_TRUE(set.insert(cell(1, 2)));
  EXPECT_FALSE(set.insert(cell(1, 2)));
  EXPECT_TRUE(set.insert(cell(2, 1)));
  EXPECT_TRUE(set.contains(cell(1, 2)));
  EXPECT_TRUE(set.contains(cell(2, 1)));
  EXPECT_FALSE(set.contains(cell(1, 1)));
  EXPECT_EQ(set.size(), 2u);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(cell(1, 2)));
  EXPECT_TRUE(set.insert(cell(1, 2)));
}

TEST(FlatSet32, KeyZeroIsAnOrdinaryMember) {
  // The cell id of (user 0, item 0) is 0, the same bit pattern that marks
  // an empty slot.
  FlatSet32 single;
  EXPECT_FALSE(single.contains(0));
  EXPECT_TRUE(single.insert(0));
  EXPECT_FALSE(single.insert(0));
  EXPECT_TRUE(single.contains(0));
  EXPECT_EQ(single.size(), 1u);
  EXPECT_EQ(batch_insert(single, {cell(0, 1), 0}),
            (std::vector<bool>{true, false}));
  EXPECT_EQ(single.size(), 2u);
  single.clear();
  EXPECT_FALSE(single.contains(0));

  FlatSet32 batched;
  EXPECT_EQ(batch_insert(batched, {0, cell(0, 1), 0, cell(0, 1)}),
            (std::vector<bool>{true, true, false, false}));
  EXPECT_TRUE(batched.contains(0));
  EXPECT_EQ(batched.size(), 2u);
  EXPECT_FALSE(batched.insert(0));
}

TEST(FlatSet32, GrowsAtTheMaxLoadOfItsSize) {
  // Below kLargeTable slots a table doubles once half full, from it up
  // once 3/4 full.
  const std::size_t large = FlatSet32::kLargeTable;
  FlatSet32 set;
  std::vector<std::uint32_t> keys;
  std::size_t growth_steps = 0;
  for (std::uint32_t n = 0; n < 49152; ++n) {
    const std::size_t cap_before = set.capacity();
    keys.push_back(cell(n % 610, n / 610));
    ASSERT_TRUE(set.insert(keys.back()));
    const std::size_t cap = set.capacity();
    if (cap >= large) {
      ASSERT_LE(set.size() * 4, cap * 3) << "load above 3/4 at " << n;
    } else {
      ASSERT_LE(set.size() * 2, cap) << "load above 1/2 at " << n;
    }
    if (cap == cap_before) continue;
    // It grew: by doubling (16 slots first), and only because the table
    // already held all the keys its bound allows.
    ++growth_steps;
    if (cap_before == 0) {
      ASSERT_EQ(cap, 16u);
    } else if (cap_before >= large) {
      ASSERT_EQ(cap, cap_before * 2);
      ASSERT_EQ(n * 4, cap_before * 3);
    } else {
      ASSERT_EQ(cap, cap_before * 2);
      ASSERT_EQ(n * 2, cap_before);
    }
    for (std::uint32_t key : keys) ASSERT_TRUE(set.contains(key)) << key;
    ASSERT_FALSE(set.contains(cell(n % 610, 1000)));
  }
  EXPECT_EQ(set.capacity(), 65536u);  // full: 49,152 = 3/4 of 65,536
  EXPECT_EQ(growth_steps, 13u);       // 0 -> 16 -> ... -> 65,536
}

TEST(FlatSet32, ReserveMatchesTheLoadBound) {
  // Either side of both bounds: 1/2 up to 4,096 slots, 3/4 from 8,192.
  for (std::size_t expected :
       {1u, 8u, 9u, 2048u, 2049u, 6144u, 6145u, 37000u, 49152u, 49153u}) {
    FlatSet32 reserved;
    reserved.reserve(expected);
    const std::size_t cap = reserved.capacity();
    FlatSet32 grown;
    for (std::uint32_t n = 0; n < expected; ++n) {
      reserved.insert(cell(n, 1));
      grown.insert(cell(n, 1));
    }
    // reserve() picked the smallest table that per-key growth reaches,
    // and the inserts after it never grew.
    EXPECT_EQ(cap, grown.capacity()) << expected;
    EXPECT_EQ(reserved.capacity(), cap) << expected;
  }
  FlatSet32 none;
  none.reserve(0);
  EXPECT_EQ(none.capacity(), 16u);
  FlatSet32 small;
  small.reserve(2049);
  EXPECT_EQ(small.capacity(), 8192u);  // 4,096 slots hold 2,048 at 1/2
  // A Table II store: about 37k ratings index into 2^16 slots.
  FlatSet32 store;
  store.reserve(37000);
  EXPECT_EQ(store.capacity(), 65536u);
}

TEST(FlatSet32, BatchReturnsWhatPerKeyInsertsWould) {
  Rng rng(11);
  const std::size_t d = FlatSet32::kPrefetchDistance;
  // Empty, shorter than, at and just past the prefetch distance, then
  // batches long enough to grow the table mid-batch.
  const std::vector<std::size_t> sizes = {0, 1, d - 1, d, d + 1, 2 * d + 3,
                                          300, 5000};
  FlatSet32 batched;
  FlatSet32 reference;
  std::size_t grew_mid_batch = 0;
  for (std::uint32_t round = 0; round < 6; ++round) {
    for (std::size_t n : sizes) {
      // 8 users x a growing item range: repeats within and across batches
      // are common, and key 0 (user 0, item 0) comes up.
      std::vector<std::uint32_t> keys(n);
      for (std::uint32_t& key : keys) {
        key = cell(static_cast<std::uint32_t>(rng.uniform(8)),
                   static_cast<std::uint32_t>(
                       rng.uniform(1000 * (round + 1))));
      }
      std::vector<bool> expected;
      for (std::uint32_t key : keys) expected.push_back(reference.insert(key));
      const std::size_t cap_before = batched.capacity();
      ASSERT_EQ(batch_insert(batched, keys), expected)
          << "round " << round << ", batch of " << n;
      ASSERT_EQ(batched.size(), reference.size());
      ASSERT_EQ(batched.capacity(), reference.capacity());
      if (n > 0 && cap_before != 0 && batched.capacity() != cap_before) {
        ++grew_mid_batch;
      }
    }
  }
  EXPECT_GT(grew_mid_batch, 0u);
  EXPECT_TRUE(reference.contains(0));
  for (std::uint32_t user = 0; user < 8; ++user) {
    for (std::uint32_t item = 0; item < 6000; ++item) {
      ASSERT_EQ(batched.contains(cell(user, item)),
                reference.contains(cell(user, item)));
    }
  }
}

TEST(ErrorMacros, RequireThrowsWithContext) {
  try {
    REX_REQUIRE(1 == 2, "numbers disagree");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("numbers disagree"), std::string::npos);
  }
}

TEST(ErrorMacros, CheckPassesSilently) {
  EXPECT_NO_THROW(REX_CHECK(2 + 2 == 4, "arithmetic"));
}

}  // namespace
}  // namespace rex
