#include "support/thread_pool.hpp"

#include <algorithm>

namespace rex {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_shards(std::size_t n, IndexFn fn, void* ctx) {
  if (n == 0) return;
  const std::size_t workers = workers_.size();
  if (workers == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    first_error_ = nullptr;
    shard_count_ = n;
    next_shard_ = 0;
    shard_fn_ = fn;
    shard_ctx_ = ctx;
    pending_ = n;  // one pending unit per shard, whoever executes it
    ++generation_;
  }
  work_ready_.notify_all();
  {
    std::unique_lock lock(mutex_);
    work_done_.wait(lock, [this] { return pending_ == 0; });
    if (first_error_) std::rethrow_exception(first_error_);
  }
}

void ThreadPool::run_shard_batch() {
  // Claim-execute loop: any subset of awakened workers can drain the batch,
  // so a late wake-up cannot deadlock it; an idle worker simply steals the
  // next unclaimed shard.
  for (;;) {
    IndexFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t index = 0;
    {
      std::lock_guard lock(mutex_);
      if (next_shard_ >= shard_count_) return;
      index = next_shard_++;
      fn = shard_fn_;
      ctx = shard_ctx_;
    }
    std::exception_ptr error;
    try {
      fn(ctx, index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      if (--pending_ == 0) work_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::size_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
    }
    run_shard_batch();
  }
}

}  // namespace rex
