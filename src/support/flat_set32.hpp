// Open-addressing set of 32-bit keys.
//
// The trusted node's raw-data duplicate filter does one lookup-or-insert
// per received rating — at 10k nodes that is millions of hashes per
// simulated second, and std::unordered_set's node allocations plus bucket
// chains dominated the merge stage in profiles. This set is a single flat
// array with linear probing and a splitmix finalizer: one cache line per
// probe, no allocations after reserve, ~4x faster inserts. Its keys are
// the store's cell ids (a rating's position in the user x item matrix),
// which fit 4-byte slots: a table spans half the cache lines and pages
// that 8-byte (user, item) keys needed. Only the operations the dedup
// filter needs (insert / insert_batch / contains / size) exist; iteration
// order is deliberately not provided, so determinism cannot come to depend
// on hash layout. Key, load bound and batch design: DESIGN.md §10
// "Duplicate filter".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rex {

class FlatSet32 {
 public:
  /// insert_batch() hashes and prefetches this many keys ahead of the one
  /// it inserts.
  static constexpr std::size_t kPrefetchDistance = 8;
  /// Slots (32 KiB) from which a table fills to 3/4 rather than 1/2.
  static constexpr std::size_t kLargeTable = std::size_t{1} << 13;

  FlatSet32() = default;

  /// Pre-sizes for `expected` keys: capacity rounds up to the smallest
  /// power of two that holds them under insert()'s max load.
  void reserve(std::size_t expected) {
    std::size_t cap = 16;
    while (!fits(expected, cap)) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Inserts `key`; returns true when it was not present (matching the
  /// unordered_set::insert(...).second contract the dedup filter uses).
  bool insert(std::uint32_t key) { return insert(key, mix(key)); }

  /// Batched insert(): for each element `x` of `items`, in order, calls
  /// `on_result(x, insert(key_of(x)))`, so results, growth and the key-0
  /// sentinel come out exactly as per-key calls would. Each key is hashed
  /// once, kPrefetchDistance elements ahead of its insert, and its home
  /// slot prefetched then: a store-sized table misses every cache, and the
  /// prefetches overlap those misses instead of waiting on each in turn.
  template <typename Items, typename KeyOf, typename OnResult>
  void insert_batch(const Items& items, KeyOf key_of, OnResult on_result) {
    const std::size_t n = items.size();
    std::uint64_t hashes[kPrefetchDistance] = {};
    for (std::size_t i = 0; i < n && i < kPrefetchDistance; ++i) {
      hashes[i] = hash_and_prefetch(key_of(items[i]));
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t& ring = hashes[i % kPrefetchDistance];
      const std::uint64_t hash = ring;
      if (i + kPrefetchDistance < n) {
        ring = hash_and_prefetch(key_of(items[i + kPrefetchDistance]));
      }
      on_result(items[i], insert(key_of(items[i]), hash));
    }
  }

  [[nodiscard]] bool contains(std::uint32_t key) const {
    if (key == kEmpty) return has_empty_key_;
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = mix(key) & mask;
    while (slots_[pos] != kEmpty) {
      if (slots_[pos] == key) return true;
      pos = (pos + 1) & mask;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots in the table: a power of two, or 0 before the first insert or
  /// reserve.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  void clear() {
    slots_.assign(slots_.size(), kEmpty);
    has_empty_key_ = false;
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0;

  [[nodiscard]] static std::uint64_t mix(std::uint64_t z) {
    // splitmix64 finalizer: full avalanche, so sequential item ids spread.
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Max load: whether `cap` slots may hold `n` keys. A miss scans 2.5
  /// slots on average at 1/2 load and 8.5 at 3/4, so a fuller table's
  /// probes spill into a second cache line more often. Below kLargeTable
  /// a fuller table saves a few KiB and measured slower; from it up the
  /// table's own size is what costs (cache reach, first-touch page faults
  /// as it grows, RSS), and at 3/4 it needs half the slots.
  [[nodiscard]] static bool fits(std::size_t n, std::size_t cap) {
    return cap >= kLargeTable ? n * 4 <= cap * 3 : n * 2 <= cap;
  }

  /// insert(key) with `hash` == mix(key) already computed.
  bool insert(std::uint32_t key, std::uint64_t hash) {
    if (slots_.empty() || !fits(size_ + 1, slots_.size())) {
      rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    // Keys are cell ids, so 0 — the empty-slot marker — is a real key
    // (user 0, item 0); it lives in a flag, not a slot.
    if (key == kEmpty) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      ++size_;
      return true;
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = hash & mask;
    while (slots_[pos] != kEmpty) {
      if (slots_[pos] == key) return false;
      pos = (pos + 1) & mask;
    }
    slots_[pos] = key;
    ++size_;
    return true;
  }

  std::uint64_t hash_and_prefetch(std::uint32_t key) const {
    const std::uint64_t hash = mix(key);
    if (!slots_.empty()) {
      __builtin_prefetch(slots_.data() + (hash & (slots_.size() - 1)));
    }
    return hash;
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(new_cap, kEmpty);
    const std::size_t mask = new_cap - 1;
    for (std::uint32_t key : old) {
      if (key == kEmpty) continue;
      std::size_t pos = mix(key) & mask;
      while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
      slots_[pos] = key;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t size_ = 0;
  bool has_empty_key_ = false;
};

}  // namespace rex
