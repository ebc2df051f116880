// Pluggable fork-join execution pool.
//
// One pool abstraction serves the consumers that spread work across
// whole runs: the ensemble runner fans replications across it and the
// job service's workers claim units on it. A single simulation run never
// touches it — the kernel is single-threaded (docs/SCALING.md
// "Threading").
//
// Determinism contract: an Executor only decides WHERE work runs, never
// what it computes. parallel_for(n, ...) invokes body(i) exactly once for
// every i in [0, n) and returns only after all invocations completed, so
// callers that write disjoint slots and merge in index order observe
// results bitwise-identical to a serial loop at any worker count.
#ifndef CAVENET_UTIL_EXECUTOR_H
#define CAVENET_UTIL_EXECUTOR_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace cavenet::exec {

/// Resolves a requested worker count: values <= 0 mean "one lane per
/// hardware thread" (never less than 1).
int resolve_workers(int requested) noexcept;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Parallelism width, including the calling thread (>= 1).
  virtual int workers() const noexcept = 0;

  /// Invokes fn(ctx, begin, end) over contiguous chunks covering [0, n),
  /// each chunk at least `grain` indices (except the last), and returns
  /// once every chunk completed. Chunks may run concurrently on
  /// arbitrary lanes. If one or more chunks throw, the exception of the
  /// lowest-begin failing chunk is rethrown (deterministically) after
  /// the batch drains.
  virtual void run_chunks(std::size_t n, std::size_t grain,
                          void (*fn)(void*, std::size_t, std::size_t),
                          void* ctx) = 0;

  /// Fork-join loop: body(i) once per i in [0, n), `grain` indices per
  /// chunk minimum. The callable is passed by reference (no allocation,
  /// no std::function); it must be safe to invoke concurrently.
  template <typename F>
  void parallel_for(std::size_t n, std::size_t grain, F&& body) {
    using Fn = std::remove_reference_t<F>;
    run_chunks(
        n, grain,
        [](void* ctx, std::size_t begin, std::size_t end) {
          Fn& f = *static_cast<Fn*>(ctx);
          for (std::size_t i = begin; i < end; ++i) f(i);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }
};

/// Serial executor: runs every chunk inline on the calling thread, in
/// ascending order. The jobs == 1 reference everything parallel is
/// byte-compared against.
class InlineExecutor final : public Executor {
 public:
  int workers() const noexcept override { return 1; }
  void run_chunks(std::size_t n, std::size_t grain,
                  void (*fn)(void*, std::size_t, std::size_t),
                  void* ctx) override;
};

/// Persistent worker-thread pool. The calling thread participates in
/// every batch as lane 0, so ThreadPoolExecutor(k) gives k lanes with
/// k - 1 spawned threads; batches are claimed as dynamically-sized
/// chunks off a shared counter (work stealing degenerates to chunk
/// claiming when chunks are uniform, and rebalances when they are not).
class ThreadPoolExecutor final : public Executor {
 public:
  /// `threads` <= 0 resolves to the hardware thread count.
  explicit ThreadPoolExecutor(int threads);
  ~ThreadPoolExecutor() override;

  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  int workers() const noexcept override { return lanes_; }
  void run_chunks(std::size_t n, std::size_t grain,
                  void (*fn)(void*, std::size_t, std::size_t),
                  void* ctx) override;

 private:
  void worker_main();
  /// Claims and runs one chunk of the current batch; false when the
  /// batch has no unclaimed chunks left.
  bool claim_and_run();

  int lanes_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes workers on a new batch
  std::condition_variable idle_cv_;  ///< batch setup waits for quiescence
  std::condition_variable done_cv_;  ///< caller waits for chunk completion
  bool shutdown_ = false;
  std::uint64_t generation_ = 0;
  int active_ = 0;  ///< workers currently draining a batch

  // Current batch; written under mutex_ before generation_ bumps, read
  // by lanes that observed the bump (the next batch's setup waits for
  // active_ == 0, so reads never overlap the writes).
  void (*fn_)(void*, std::size_t, std::size_t) = nullptr;
  void* ctx_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::size_t chunk_count_ = 0;
  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<std::size_t> done_chunks_{0};

  std::exception_ptr failure_;
  std::size_t failure_begin_ = 0;
};

}  // namespace cavenet::exec

#endif  // CAVENET_UTIL_EXECUTOR_H
