// Executor units (docs/SCALING.md "Threading"): exactly-once index
// coverage, grain-floored chunking, disjoint-slot writes byte-identical
// to the serial reference, deterministic lowest-begin exception
// rethrow, and pool reuse across batches. Rides the tier1-shard label
// so the tsan preset races the pool on every run.
#include "util/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace cavenet::exec {
namespace {

TEST(ResolveWorkersTest, PositivePassesThroughNonPositiveMeansHardware) {
  EXPECT_EQ(resolve_workers(1), 1);
  EXPECT_EQ(resolve_workers(5), 5);
  EXPECT_GE(resolve_workers(0), 1);
  EXPECT_GE(resolve_workers(-3), 1);
  EXPECT_EQ(resolve_workers(0), resolve_workers(-7));
}

TEST(InlineExecutorTest, VisitsEveryIndexInAscendingOrder) {
  InlineExecutor ex;
  EXPECT_EQ(ex.workers(), 1);
  std::vector<std::size_t> seen;
  ex.parallel_for(17, 4, [&](std::size_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 17u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(InlineExecutorTest, EmptyRangeIsANoOp) {
  InlineExecutor ex;
  bool called = false;
  ex.parallel_for(0, 1, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolExecutorTest, CoversEveryIndexExactlyOnce) {
  ThreadPoolExecutor pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 8, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i;
  }
}

TEST(ThreadPoolExecutorTest, SingleLanePoolStillCoversTheRange) {
  // lanes == 1 means no spawned threads at all — the caller is lane 0.
  ThreadPoolExecutor pool(1);
  EXPECT_EQ(pool.workers(), 1);
  std::atomic<std::size_t> count{0};
  pool.parallel_for(100, 1, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPoolExecutorTest, DisjointSlotWritesMatchSerialBytewise) {
  // The determinism contract the kernel leans on: identical per-index
  // arithmetic into disjoint slots yields bitwise-identical doubles at
  // any worker count.
  const std::size_t n = 4096;
  const auto compute = [](std::size_t i) {
    const double x = static_cast<double>(i);
    return std::sin(x) * 1e-3 + std::sqrt(x + 1.0) / (x + 2.0);
  };
  std::vector<double> serial(n), pooled(n);
  InlineExecutor inline_ex;
  inline_ex.parallel_for(n, 64, [&](std::size_t i) { serial[i] = compute(i); });
  ThreadPoolExecutor pool(3);
  pool.parallel_for(n, 64, [&](std::size_t i) { pooled[i] = compute(i); });
  EXPECT_EQ(std::memcmp(serial.data(), pooled.data(), n * sizeof(double)), 0);
}

TEST(ThreadPoolExecutorTest, ChunksAreContiguousDisjointAndGrainFloored) {
  ThreadPoolExecutor pool(4);
  struct Ctx {
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
  } ctx;
  const std::size_t n = 1003;
  const std::size_t grain = 16;
  pool.run_chunks(
      n, grain,
      [](void* opaque, std::size_t begin, std::size_t end) {
        Ctx& c = *static_cast<Ctx*>(opaque);
        const std::lock_guard<std::mutex> lock(c.mutex);
        c.chunks.emplace_back(begin, end);
      },
      &ctx);
  std::sort(ctx.chunks.begin(), ctx.chunks.end());
  ASSERT_FALSE(ctx.chunks.empty());
  std::size_t expected_begin = 0;
  for (std::size_t i = 0; i < ctx.chunks.size(); ++i) {
    const auto [begin, end] = ctx.chunks[i];
    EXPECT_EQ(begin, expected_begin) << "gap or overlap at chunk " << i;
    EXPECT_GT(end, begin);
    if (i + 1 < ctx.chunks.size()) {
      EXPECT_GE(end - begin, grain) << "undersized non-tail chunk " << i;
    }
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, n);
}

TEST(ThreadPoolExecutorTest, RethrowsTheLowestBeginChunkFailure) {
  ThreadPoolExecutor pool(4);
  // Indices 7 and 100 land in different chunks (256 indices, 4 lanes);
  // the rethrown exception must be the lowest-begin chunk's, making
  // failure reporting deterministic at any interleaving.
  try {
    pool.parallel_for(256, 1, [](std::size_t i) {
      if (i == 7 || i == 100) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");
  }
}

TEST(ThreadPoolExecutorTest, SurvivesAFailedBatchAndKeepsWorking) {
  ThreadPoolExecutor pool(2);
  EXPECT_THROW(pool.parallel_for(
                   64, 1,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("fail");
                   }),
               std::runtime_error);
  std::atomic<std::size_t> count{0};
  pool.parallel_for(64, 1, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64u);
}

}  // namespace
}  // namespace cavenet::exec
