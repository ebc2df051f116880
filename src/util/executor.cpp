#include "util/executor.h"

#include <algorithm>

namespace cavenet::exec {

int resolve_workers(int requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void InlineExecutor::run_chunks(std::size_t n, std::size_t grain,
                                void (*fn)(void*, std::size_t, std::size_t),
                                void* ctx) {
  (void)grain;
  if (n == 0) return;
  fn(ctx, 0, n);
}

ThreadPoolExecutor::ThreadPoolExecutor(int threads)
    : lanes_(resolve_workers(threads)) {
  threads_.reserve(static_cast<std::size_t>(lanes_ - 1));
  for (int lane = 1; lane < lanes_; ++lane) {
    threads_.emplace_back(&ThreadPoolExecutor::worker_main, this);
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

bool ThreadPoolExecutor::claim_and_run() {
  const std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
  if (c >= chunk_count_) return false;
  const std::size_t begin = c * chunk_;
  const std::size_t end = std::min(n_, begin + chunk_);
  try {
    fn_(ctx_, begin, end);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (begin < failure_begin_) {
      failure_begin_ = begin;
      failure_ = std::current_exception();
    }
  }
  if (done_chunks_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      chunk_count_) {
    // Empty critical section pairs with the caller's predicate check so
    // the notify can never slip between its check and its wait.
    { const std::lock_guard<std::mutex> lock(mutex_); }
    done_cv_.notify_all();
  }
  return true;
}

void ThreadPoolExecutor::worker_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    ++active_;
    lock.unlock();
    while (claim_and_run()) {
    }
    lock.lock();
    if (--active_ == 0) idle_cv_.notify_all();
  }
}

void ThreadPoolExecutor::run_chunks(
    std::size_t n, std::size_t grain,
    void (*fn)(void*, std::size_t, std::size_t), void* ctx) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (lanes_ <= 1 || n <= grain) {
    // Nothing to fan out; run inline.
    fn(ctx, 0, n);
    return;
  }

  // Chunks a few times smaller than a lane's even share, so late lanes
  // rebalance without paying a claim per index.
  const std::size_t lanes = static_cast<std::size_t>(lanes_);
  const std::size_t chunk =
      std::max(grain, (n + lanes * 4 - 1) / (lanes * 4));
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Stragglers from the previous batch may still be inside their claim
    // loop; batch state must not change under them.
    idle_cv_.wait(lock, [&] { return active_ == 0; });
    fn_ = fn;
    ctx_ = ctx;
    n_ = n;
    chunk_ = chunk;
    chunk_count_ = (n + chunk - 1) / chunk;
    next_chunk_.store(0, std::memory_order_relaxed);
    done_chunks_.store(0, std::memory_order_relaxed);
    failure_ = nullptr;
    failure_begin_ = n;
    ++generation_;
  }
  work_cv_.notify_all();

  while (claim_and_run()) {
  }

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    return done_chunks_.load(std::memory_order_acquire) == chunk_count_;
  });
  if (failure_) {
    const std::exception_ptr failure = failure_;
    failure_ = nullptr;
    lock.unlock();
    std::rethrow_exception(failure);
  }
}

}  // namespace cavenet::exec
