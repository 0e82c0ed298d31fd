// Bucketed calendar queue (R. Brown, CACM 1988): the O(1)-amortized event
// queue behind sim::SimEngine.
//
// Items carry a (time, seq) key — earliest time first, FIFO sequence on
// ties — and are hashed into a power-of-two ring of buckets by
// floor(time / width). The width tracks the mean inter-event gap (re-fit on
// every resize), so each bucket-year holds O(1) items and push/pop are
// O(1) amortized instead of the binary heap's O(log n). The pop order is
// the exact total order a min-heap on (time, seq) would produce, so a run
// scheduled through this queue is bit-identical to one scheduled through
// std::priority_queue for the same seed (the fuzz test in
// calendar_queue_test.cpp checks this against std::priority_queue
// directly, ties included).
//
// Degenerate schedules fall back to heap-equivalent behavior rather than
// breaking: if every queued item shares one timestamp the width fit keeps
// its previous value and the items collapse into a single scanned bucket,
// and if all items live beyond the current bucket-year ring a direct O(n)
// search finds the minimum (both produce the same (time, seq) order, just
// without the O(1) bucket hit).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/error.hpp"

namespace rex {

/// The calendar-queue ordering key: earliest time first, FIFO schedule
/// sequence on ties (the event engine's seeded deterministic tie-break).
struct CalendarKey {
  double time = 0.0;
  std::uint64_t seq = 0;

  [[nodiscard]] bool before(const CalendarKey& other) const {
    if (time != other.time) return time < other.time;
    return seq < other.seq;
  }
};

/// KeyFn must be a stateless-cheap functor: CalendarKey operator()(const T&).
template <class T, class KeyFn>
class CalendarQueue {
 public:
  struct Stats {
    std::uint64_t resizes = 0;          // bucket-ring re-fits
    std::uint64_t direct_searches = 0;  // ring misses (sparse far tails)
    std::size_t max_size = 0;           // high-water item count
  };

  explicit CalendarQueue(KeyFn key = KeyFn{}) : key_(key) {
    buckets_.resize(kMinBuckets);
    mask_ = kMinBuckets - 1;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  void push(T item) {
    const CalendarKey key = key_(item);
    if (size_ == 0 || key.time < last_min_) {
      // New lower anchor: the search ring restarts at this item's year.
      last_min_ = key.time;
    }
    const std::size_t b =
        static_cast<std::size_t>(virtual_bucket(key.time)) & mask_;
    if (cache_valid_ && key.before(min_key_)) {
      min_bucket_ = b;
      min_index_ = buckets_[b].size();
      min_key_ = key;
    }
    buckets_[b].push_back(std::move(item));
    ++size_;
    stats_.max_size = std::max(stats_.max_size, size_);
    if (size_ > buckets_.size() * 2) rebuild(buckets_.size() * 2);
  }

  /// The minimum-(time, seq) item. Not const: the located position is
  /// cached until the next push/pop.
  [[nodiscard]] const T& top() {
    locate_min();
    return buckets_[min_bucket_][min_index_];
  }

  T pop() {
    locate_min();
    std::vector<T>& bucket = buckets_[min_bucket_];
    T item = std::move(bucket[min_index_]);
    if (min_index_ + 1 != bucket.size()) {
      bucket[min_index_] = std::move(bucket.back());
    }
    bucket.pop_back();
    --size_;
    last_min_ = min_key_.time;
    cache_valid_ = false;
    maybe_shrink();
    return item;
  }

  /// Pops every item whose time equals the minimum queued time, appending
  /// them to `out` in seq order. Equal times always share one bucket, so
  /// this is a single bucket sweep — O(k log k) for a k-way tie where
  /// repeated pop() would pay O(k^2) bucket scans.
  void pop_time_batch(std::vector<T>& out) {
    locate_min();
    const double t = min_key_.time;
    std::vector<T>& bucket = buckets_[min_bucket_];
    const std::size_t first = out.size();
    for (std::size_t i = 0; i < bucket.size();) {
      if (key_(bucket[i]).time == t) {
        out.push_back(std::move(bucket[i]));
        if (i + 1 != bucket.size()) bucket[i] = std::move(bucket.back());
        bucket.pop_back();
      } else {
        ++i;
      }
    }
    size_ -= out.size() - first;
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [this](const T& a, const T& b) {
                return key_(a).seq < key_(b).seq;
              });
    last_min_ = t;
    cache_valid_ = false;
    maybe_shrink();
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;
  /// Clamp for time/width: beyond this every item collapses into one "far"
  /// year and is ordered by the direct-search fallback.
  static constexpr double kMaxVirtual = 9.0e18;

  [[nodiscard]] std::uint64_t virtual_bucket(double time) const {
    if (time <= 0.0) return 0;
    const double vb = time / width_;
    if (vb >= kMaxVirtual) return static_cast<std::uint64_t>(kMaxVirtual);
    return static_cast<std::uint64_t>(vb);
  }

  void locate_min() {
    REX_REQUIRE(size_ > 0, "calendar queue is empty");
    if (cache_valid_) return;
    // Calendar scan: walk one full year of buckets starting at the last
    // minimum's year. The first bucket holding an item of its own year
    // holds the global minimum (later buckets of this year are strictly
    // later; earlier years are empty by the last_min_ invariant).
    std::uint64_t vb = virtual_bucket(last_min_);
    for (std::size_t step = 0; step < buckets_.size(); ++step, ++vb) {
      const std::size_t b = static_cast<std::size_t>(vb) & mask_;
      const std::vector<T>& bucket = buckets_[b];
      bool found = false;
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const CalendarKey key = key_(bucket[i]);
        if (virtual_bucket(key.time) != vb) continue;  // a later year
        if (!found || key.before(min_key_)) {
          found = true;
          min_bucket_ = b;
          min_index_ = i;
          min_key_ = key;
        }
      }
      if (found) {
        cache_valid_ = true;
        return;
      }
    }
    // Every item lives beyond the scanned year (sparse far tail): direct
    // O(n) search. last_min_ then jumps to the found minimum, making the
    // following pops cheap again.
    ++stats_.direct_searches;
    bool found = false;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const std::vector<T>& bucket = buckets_[b];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        const CalendarKey key = key_(bucket[i]);
        if (!found || key.before(min_key_)) {
          found = true;
          min_bucket_ = b;
          min_index_ = i;
          min_key_ = key;
        }
      }
    }
    cache_valid_ = true;
  }

  void maybe_shrink() {
    if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 4) {
      rebuild(buckets_.size() / 2);
    }
  }

  /// Re-fit the bucket width to the live item population: width targets
  /// ~2 items per bucket-year over a trimmed (outlier-resistant) span.
  [[nodiscard]] double fitted_width() const {
    if (scratch_.size() < 2) return width_;
    sample_.clear();
    const std::size_t stride = std::max<std::size_t>(1, scratch_.size() / 256);
    for (std::size_t i = 0; i < scratch_.size(); i += stride) {
      sample_.push_back(key_(scratch_[i]).time);
    }
    std::sort(sample_.begin(), sample_.end());
    // ~90th percentile span: one far-future event (a long churn outage)
    // must not stretch every bucket.
    const std::size_t hi = sample_.size() - 1 - sample_.size() / 10;
    const double span = sample_[hi] - sample_.front();
    if (span <= 0.0) return width_;  // all ties: width is irrelevant
    const double mean_gap = span / (0.9 * static_cast<double>(scratch_.size()));
    return std::max(mean_gap * 2.0, 1e-300);
  }

  void rebuild(std::size_t bucket_count) {
    scratch_.clear();
    scratch_.reserve(size_);
    for (std::vector<T>& bucket : buckets_) {
      for (T& item : bucket) scratch_.push_back(std::move(item));
      bucket.clear();
    }
    buckets_.resize(bucket_count);
    mask_ = bucket_count - 1;
    width_ = fitted_width();
    for (T& item : scratch_) {
      const CalendarKey key = key_(item);
      buckets_[static_cast<std::size_t>(virtual_bucket(key.time)) & mask_]
          .push_back(std::move(item));
    }
    scratch_.clear();
    cache_valid_ = false;
    ++stats_.resizes;
  }

  KeyFn key_;
  std::vector<std::vector<T>> buckets_;
  std::size_t mask_ = 0;
  double width_ = 1.0;
  std::size_t size_ = 0;
  /// Lower bound on every queued item's time: the last popped time, lowered
  /// by any push below it. Search rings start at this year.
  double last_min_ = 0.0;

  // Cached minimum position (valid between locate_min and the next mutation
  // that beats or removes it).
  bool cache_valid_ = false;
  std::size_t min_bucket_ = 0;
  std::size_t min_index_ = 0;
  CalendarKey min_key_;

  std::vector<T> scratch_;             // rebuild staging
  mutable std::vector<double> sample_; // width-fit staging
  Stats stats_;
};

/// N independent calendar shards behind the single-queue API (DESIGN.md
/// §10). Items hash to a shard by their schedule sequence, so each shard's
/// bucket ring and rebuild scans cover 1/N of the population; pop takes the
/// global minimum across shard tops under the exact (time, seq) total order
/// — seq is unique, so the pop sequence is *identical* to a single queue's
/// for every shard count, and the count is free to scale with the node
/// population without perturbing any seeded schedule. Shard tops are
/// cached inside each CalendarQueue, so the argmin sweep costs N cached
/// reads, not N searches.
template <class T, class KeyFn>
class ShardedCalendarQueue {
 public:
  using Stats = typename CalendarQueue<T, KeyFn>::Stats;

  explicit ShardedCalendarQueue(std::size_t shards = 1, KeyFn key = KeyFn{})
      : key_(key) {
    REX_REQUIRE(shards > 0, "sharded calendar queue needs >= 1 shard");
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) shards_.emplace_back(key);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Merged shard counters plus this wrapper's global high-water mark.
  [[nodiscard]] Stats stats() const {
    Stats total;
    for (const CalendarQueue<T, KeyFn>& shard : shards_) {
      total.resizes += shard.stats().resizes;
      total.direct_searches += shard.stats().direct_searches;
    }
    total.max_size = max_size_;
    return total;
  }

  void push(T item) {
    const std::size_t s =
        static_cast<std::size_t>(key_(item).seq) % shards_.size();
    shards_[s].push(std::move(item));
    ++size_;
    max_size_ = std::max(max_size_, size_);
  }

  [[nodiscard]] const T& top() { return shards_[min_shard()].top(); }

  T pop() {
    const std::size_t s = min_shard();
    --size_;
    return shards_[s].pop();
  }

  /// Pops every item whose time equals the global minimum queued time,
  /// appending to `out` in seq order. Equal-time items may live in any
  /// shard, so each matching shard contributes its batch and the appended
  /// range is re-sorted by seq — the same order the single queue emits.
  void pop_time_batch(std::vector<T>& out) {
    const double t = key_(shards_[min_shard()].top()).time;
    const std::size_t first = out.size();
    for (CalendarQueue<T, KeyFn>& shard : shards_) {
      if (!shard.empty() && key_(shard.top()).time == t) {
        shard.pop_time_batch(out);
      }
    }
    size_ -= out.size() - first;
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [this](const T& a, const T& b) {
                return key_(a).seq < key_(b).seq;
              });
  }

 private:
  /// Index of the shard holding the global (time, seq) minimum.
  [[nodiscard]] std::size_t min_shard() {
    REX_REQUIRE(size_ > 0, "sharded calendar queue is empty");
    std::size_t best = shards_.size();
    CalendarKey best_key;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].empty()) continue;
      const CalendarKey key = key_(shards_[s].top());
      if (best == shards_.size() || key.before(best_key)) {
        best = s;
        best_key = key;
      }
    }
    return best;
  }

  KeyFn key_;
  std::vector<CalendarQueue<T, KeyFn>> shards_;
  std::size_t size_ = 0;
  std::size_t max_size_ = 0;
};

}  // namespace rex
