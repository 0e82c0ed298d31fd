// Fixed-size thread pool with one deterministic data-parallel primitive.
//
// The simulation parallelizes *across nodes that own disjoint state*
// (DESIGN.md §4), so no ordering between concurrently executed indices is
// ever required and results stay bitwise identical to serial execution.
// parallel_shards splits work dynamically: workers claim the next
// unclaimed index from a shared cursor, so an expensive index (a node with
// a large store, an event batch with a slow node) does not idle the rest
// of the pool. Barrier rounds, attestation steps and the event engine's
// same-timestamp batches all run on it.
//
// The entry point is a template dispatching through a borrowed (context,
// trampoline) pair instead of std::function: the event engine calls
// parallel_shards once per same-timestamp batch — at 10k nodes that is
// hundreds of thousands of calls, and a std::function materialized per
// call would put a heap allocation on the scheduler's critical path. The
// callable only needs to outlive the call, which the primitive guarantees
// by blocking until the batch completes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rex {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) with dynamic (work-stealing) scheduling:
  /// every worker repeatedly claims the lowest unclaimed index until all are
  /// done. Each index runs exactly once; indices must be independent (no
  /// ordering is guaranteed). Blocks until every call returned; exceptions
  /// propagate (first one wins).
  template <class F>
  void parallel_shards(std::size_t n, F&& fn) {
    run_shards(n, &trampoline<F>, const_cast<void*>(
                                      static_cast<const void*>(&fn)));
  }

 private:
  /// Borrowed callable: `call(ctx, i)` invokes the caller's functor. Valid
  /// only while the blocking entry point is on the caller's stack.
  using IndexFn = void (*)(void* ctx, std::size_t index);

  template <class F>
  static void trampoline(void* ctx, std::size_t index) {
    (*static_cast<std::remove_reference_t<F>*>(ctx))(index);
  }

  void run_shards(std::size_t n, IndexFn fn, void* ctx);
  void worker_loop();
  void run_shard_batch();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::size_t pending_ = 0;        // shards not yet finished this batch
  std::size_t generation_ = 0;     // batch counter
  bool stopping_ = false;
  std::exception_ptr first_error_;
  std::size_t shard_count_ = 0;
  std::size_t next_shard_ = 0;     // claim cursor (guarded by mutex_)
  IndexFn shard_fn_ = nullptr;
  void* shard_ctx_ = nullptr;
};

}  // namespace rex
