// Deterministic pseudo-random number generation.
//
// Every REX experiment is seeded; per-node generators are derived with
// splitmix jumps so results are reproducible regardless of scheduling
// (DESIGN.md §4 "Determinism"). xoshiro256++ is the workhorse: fast,
// high-quality, and trivially copyable (snapshots are cheap).
#pragma once

#include <cstdint>
#include <vector>

namespace rex {

/// SplitMix64: used to expand a single 64-bit seed into generator state and
/// to derive independent per-node streams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ engine. Satisfies UniformRandomBitGenerator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256pp(std::uint64_t seed = 0xC0FFEE) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Convenience wrapper bundling an engine with the distributions REX needs.
/// Distribution algorithms are implemented here (not via <random>) so that
/// sequences are identical across standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xC0FFEE) : seed_(seed), engine_(seed) {}

  /// Derives an independent generator for stream `index` (e.g. one per node).
  [[nodiscard]] Rng derive(std::uint64_t index) const;

  /// The seed this generator was constructed from.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  std::uint64_t next_u64() { return engine_(); }

  // The distribution draws are defined inline (rng.inl, included below):
  // uniform() alone runs millions of times per simulated second on the
  // sampling and scheduling paths, and an out-of-line call per draw showed
  // up as whole percents in the 10k-node profile.

  /// Uniform integer in [0, bound). `bound` must be > 0.
  inline std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  inline std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  inline double uniform01();

  /// Uniform double in [lo, hi).
  inline double uniform_real(double lo, double hi);

  /// True with probability `p` (clamped to [0,1]).
  inline bool bernoulli(double p);

  /// Standard normal via Box–Muller (cached spare value).
  inline double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  Xoshiro256pp& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  Xoshiro256pp engine_;
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace rex

#include "support/rng.inl"
