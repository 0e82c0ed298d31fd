#include "support/rng.hpp"

namespace rex {

void Xoshiro256pp::reseed(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // A zero state would lock the generator; splitmix cannot produce four
  // zero outputs from any seed, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x1;
}

Rng Rng::derive(std::uint64_t index) const {
  // Mix the parent seed with the stream index through splitmix so streams
  // with adjacent indices are statistically independent.
  SplitMix64 sm(seed_ ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
  return Rng(sm.next());
}

}  // namespace rex
