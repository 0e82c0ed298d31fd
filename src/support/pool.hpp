// Allocation-recycling primitives for the hot simulation paths.
//
// Three tools, one theme — the event engine and the share path must not pay
// the allocator per event at 10k+ nodes:
//
//   SlotPool<T>    index-addressed freelist. The event engine parks
//                  per-event state (in-flight envelopes, share batches,
//                  pending epoch records) in slots and threads the 32-bit
//                  slot id through the Event itself, replacing one
//                  unordered_map insert+find+erase per event with two
//                  vector pokes. Released slots keep their T's heap
//                  capacity, so a recycled std::vector slot is also a
//                  container pool.
//
//   BufferPool     thread-safe freelist of Bytes buffers. Producers acquire
//                  (consumer threads release), so payload storage cycles
//                  sender -> wire -> receiver -> sender without touching
//                  the allocator once the pool is warm.
//
//   SharedBytes    immutable refcounted byte buffer: the zero-copy payload
//                  currency of net::Envelope. A node sharing one blob with
//                  k neighbors wraps it once and every envelope holds a
//                  reference; the last release frees the storage — or
//                  returns it to the BufferPool it came from.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace rex {

template <class T>
class SlotPool {
 public:
  /// Returns a slot id, reusing a released slot (with whatever capacity its
  /// T retained) when one exists. References into the pool are invalidated
  /// by acquire(); re-index instead of holding them across calls.
  [[nodiscard]] std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Marks the slot reusable. The T is intentionally not destroyed — clear
  /// it first if it pins resources (refcounts) that should release now.
  void release(std::uint32_t slot) { free_.push_back(slot); }

  [[nodiscard]] T& operator[](std::uint32_t slot) { return slots_[slot]; }
  [[nodiscard]] const T& operator[](std::uint32_t slot) const {
    return slots_[slot];
  }

  [[nodiscard]] std::size_t slots_allocated() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

class BufferPool {
 public:
  struct Stats {
    std::uint64_t reused = 0;  // acquires served from the freelist
    std::uint64_t fresh = 0;   // acquires that fell through to malloc
  };

  /// Freelist shards. Producers acquire on math-phase worker threads and
  /// consumers release on *different* worker threads, so a single mutex
  /// serializes the whole share path; per-thread shards cut that contention
  /// (DESIGN.md §10). A shard only caches *capacity* — which freelist a
  /// buffer cycles through can never change the bytes any consumer reads —
  /// so the thread->shard mapping is free to vary run to run without
  /// perturbing determinism.
  static constexpr std::size_t kShards = 8;

  /// Refcount block backing SharedBytes: one header + the byte storage,
  /// recycled wholesale so a warm share path performs zero allocations.
  struct Block {
    std::atomic<std::uint32_t> refs{1};
    BufferPool* pool = nullptr;  // null = free with delete on last release
    std::size_t size = 0;        // logical payload size (bytes may be fatter)
    Bytes bytes;
  };

  ~BufferPool() {
    for (Shard& shard : shards_) {
      for (Block* block : shard.free_blocks) delete block;
    }
  }

  /// A buffer with whatever capacity its previous life left behind (empty
  /// size), or a fresh one when the calling thread's freelist shard is dry.
  [[nodiscard]] Bytes acquire() {
    Shard& shard = local_shard();
    std::lock_guard lock(shard.mutex);
    if (shard.free_bytes.empty()) {
      ++shard.stats.fresh;
      return Bytes{};
    }
    ++shard.stats.reused;
    Bytes buffer = std::move(shard.free_bytes.back());
    shard.free_bytes.pop_back();
    buffer.clear();
    return buffer;
  }

  void release(Bytes buffer) {
    if (buffer.capacity() == 0) return;
    Shard& shard = local_shard();
    std::lock_guard lock(shard.mutex);
    shard.free_bytes.push_back(std::move(buffer));
  }

  /// A recycled (or fresh) refcount block owning `bytes`, refs == 1.
  [[nodiscard]] Block* acquire_block(Bytes bytes) {
    Shard& shard = local_shard();
    Block* block = nullptr;
    {
      std::lock_guard lock(shard.mutex);
      if (!shard.free_blocks.empty()) {
        block = shard.free_blocks.back();
        shard.free_blocks.pop_back();
      }
    }
    if (block == nullptr) block = new Block;
    block->refs.store(1, std::memory_order_relaxed);
    block->pool = this;
    block->size = bytes.size();
    block->bytes = std::move(bytes);
    return block;
  }

  /// Last reference dropped: the byte storage rejoins the releasing
  /// thread's scratch freelist (its capacity feeds that thread's next
  /// encode) and the shell is parked for the next acquire_block.
  void release_block(Block* block) {
    Shard& shard = local_shard();
    std::lock_guard lock(shard.mutex);
    if (block->bytes.capacity() != 0) {
      shard.free_bytes.push_back(std::move(block->bytes));
      block->bytes = Bytes{};
    }
    shard.free_blocks.push_back(block);
  }

  /// Sums over shards — totals match the single-freelist accounting.
  [[nodiscard]] Stats stats() const {
    Stats total;
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      total.reused += shard.stats.reused;
      total.fresh += shard.stats.fresh;
    }
    return total;
  }
  [[nodiscard]] std::size_t free_buffers() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard lock(shard.mutex);
      total += shard.free_bytes.size();
    }
    return total;
  }

 private:
  struct alignas(64) Shard {  // no false sharing between shard mutexes
    mutable std::mutex mutex;
    std::vector<Bytes> free_bytes;
    std::vector<Block*> free_blocks;
    Stats stats;
  };

  /// Each thread pins to one shard for its lifetime (round-robin over a
  /// process-wide counter), so repeated acquire/release from one thread
  /// reuses one freelist — the single-threaded recycling behavior the unit
  /// tests pin down — while distinct workers land on distinct shards.
  [[nodiscard]] Shard& local_shard() {
    static std::atomic<std::size_t> next_thread{0};
    static thread_local std::size_t thread_slot =
        next_thread.fetch_add(1, std::memory_order_relaxed);
    return shards_[thread_slot % kShards];
  }

  std::array<Shard, kShards> shards_;
};

/// Immutable refcounted byte buffer with an intrusive count — no
/// shared_ptr control-block allocation; pooled blocks recycle entirely.
class SharedBytes {
 public:
  SharedBytes() = default;
  /// Implicit on purpose: every legacy `payload = some_bytes` send site
  /// keeps compiling, now with shared (not copied) storage.
  SharedBytes(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : block_(new BufferPool::Block) {
    block_->pool = nullptr;
    block_->size = bytes.size();
    block_->bytes = std::move(bytes);
  }

  SharedBytes(const SharedBytes& other) : block_(other.block_) {
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  SharedBytes(SharedBytes&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  SharedBytes& operator=(SharedBytes other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~SharedBytes() { reset(); }

  /// Takes ownership; storage is freed on last release.
  [[nodiscard]] static SharedBytes wrap(Bytes bytes) {
    return SharedBytes(std::move(bytes));
  }

  /// Takes ownership; storage returns to `pool` on last release, closing
  /// the producer->consumer->producer recycling loop.
  [[nodiscard]] static SharedBytes pooled(BufferPool& pool, Bytes bytes) {
    SharedBytes shared;
    shared.block_ = pool.acquire_block(std::move(bytes));
    return shared;
  }

  /// Cached in the block header (the buffer is immutable): traffic
  /// accounting reads the size per envelope per edge.
  [[nodiscard]] std::size_t size() const {
    return block_ != nullptr ? block_->size : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const {
    return block_ != nullptr ? block_->bytes.data() : nullptr;
  }
  [[nodiscard]] BytesView view() const {
    return block_ != nullptr ? BytesView(block_->bytes) : BytesView();
  }
  operator BytesView() const { return view(); }  // NOLINT
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return block_->bytes[i];
  }

  /// Mutable copy of the contents (tamper tests; never the hot path).
  [[nodiscard]] Bytes to_bytes() const {
    return block_ != nullptr ? block_->bytes : Bytes{};
  }

 private:
  void reset() {
    if (block_ == nullptr) return;
    if (block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (block_->pool != nullptr) {
        block_->pool->release_block(block_);
      } else {
        delete block_;
      }
    }
    block_ = nullptr;
  }

  BufferPool::Block* block_ = nullptr;
};

}  // namespace rex
