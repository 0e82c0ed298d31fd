// First use of the X25519 public-key comb: its 30 KiB table of base-point
// multiples is built inside the first x25519_public_key call, so this
// binary's only test has eight threads make the process's first public
// keys at once. Each must get the Montgomery ladder's key. The TSan job
// runs it, which covers the table's one-time initialization.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/x25519.hpp"

namespace rex::crypto {
namespace {

TEST(X25519FirstUse, ConcurrentFirstPublicKeysMatchTheLadder) {
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 4;
  std::vector<X25519Key> scalars;
  Drbg drbg(23);
  for (int i = 0; i < kThreads * kKeysPerThread; ++i) {
    scalars.push_back(drbg.next_x25519_private());
  }

  std::vector<X25519Key> keys(scalars.size());
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together, so the first calls race on the table.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      for (int k = 0; k < kKeysPerThread; ++k) {
        const std::size_t i = static_cast<std::size_t>(t * kKeysPerThread + k);
        keys[i] = x25519_public_key(scalars[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  X25519Key nine{};
  nine[0] = 9;
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    EXPECT_EQ(keys[i], x25519(scalars[i], nine)) << "key " << i;
  }
}

}  // namespace
}  // namespace rex::crypto
