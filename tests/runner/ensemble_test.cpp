#include "runner/ensemble.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/stats_registry.h"

namespace cavenet::runner {
namespace {

TEST(ResolveJobsTest, PositiveValuesPassThrough) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
}

TEST(ResolveJobsTest, NonPositiveMeansHardwareThreadsNeverLessThanOne) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
  EXPECT_EQ(resolve_jobs(0), resolve_jobs(-7));
}

TEST(ParseJobsFlagTest, DefaultsToSerial) {
  const char* argv[] = {"bench"};
  EXPECT_EQ(parse_jobs_flag(1, argv), 1);
}

TEST(ParseJobsFlagTest, ParsesExplicitCount) {
  const char* argv[] = {"bench", "--jobs", "4"};
  EXPECT_EQ(parse_jobs_flag(3, argv), 4);
}

TEST(ParseJobsFlagTest, ZeroResolvesToHardwareThreads) {
  const char* argv[] = {"bench", "--jobs", "0"};
  EXPECT_GE(parse_jobs_flag(3, argv), 1);
}

TEST(ParseJobsFlagTest, UnknownFlagThrows) {
  const char* argv[] = {"bench", "--jbos", "4"};
  EXPECT_THROW(parse_jobs_flag(3, argv), std::invalid_argument);
}

TEST(EnsembleRunnerTest, MapReturnsResultsInReplicationOrder) {
  for (const int jobs : {1, 4}) {
    const auto out = map<std::size_t>(
        100, jobs, [](ReplicationContext& ctx) { return ctx.index * 10; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 10);
  }
}

TEST(EnsembleRunnerTest, EveryReplicationRunsExactlyOnce) {
  for (const int jobs : {1, 4}) {
    std::atomic<int> calls{0};
    std::vector<std::atomic<int>> per_index(57);
    for_each(57, jobs, [&](ReplicationContext& ctx) {
      ++calls;
      ++per_index[ctx.index];
      EXPECT_NE(ctx.stats, nullptr);
    });
    EXPECT_EQ(calls.load(), 57) << "jobs=" << jobs;
    for (const auto& c : per_index) EXPECT_EQ(c.load(), 1) << "jobs=" << jobs;
  }
}

TEST(EnsembleRunnerTest, ZeroReplicationsIsANoOp) {
  bool called = false;
  for_each(0, 4, [&](ReplicationContext&) { called = true; });
  EXPECT_FALSE(called);
}

TEST(EnsembleRunnerTest, OneJobRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> seen;
  for_each(17, 1, [&](ReplicationContext& ctx) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << ctx.index;
    seen.push_back(ctx.index);
  });
  ASSERT_EQ(seen.size(), 17u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(EnsembleRunnerTest, NeverUsesMoreLanesThanJobs) {
  for (const int jobs : {2, 4}) {
    for (const std::size_t n : {std::size_t{3}, std::size_t{64}}) {
      std::mutex mutex;
      std::set<std::thread::id> lanes;
      for_each(n, jobs, [&](ReplicationContext&) {
        // Long enough that every started lane gets to claim work.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::lock_guard<std::mutex> lock(mutex);
        lanes.insert(std::this_thread::get_id());
      });
      EXPECT_LE(lanes.size(), std::min(static_cast<std::size_t>(jobs), n))
          << "jobs=" << jobs << " n=" << n;
    }
  }
}

TEST(EnsembleRunnerTest, MergedStatsAreIdenticalForAnyJobsCount) {
  const auto stats_json_at = [](int jobs) {
    obs::StatsRegistry merged;
    for_each(
        20, jobs,
        [](ReplicationContext& ctx) {
          ctx.stats->counter("runs").inc();
          ctx.stats->counter("work.items").inc(ctx.index);
          ctx.stats->gauge("last.index").set(static_cast<double>(ctx.index));
          ctx.stats->quantile("index.quantile").observe(
              static_cast<double>(ctx.index));
        },
        &merged);
    return merged.snapshot().to_json();
  };
  const auto serial = stats_json_at(1);
  EXPECT_EQ(serial, stats_json_at(4));
  EXPECT_EQ(serial, stats_json_at(16));
}

TEST(EnsembleRunnerTest, MergeReproducesSequentialSharedRegistrySemantics) {
  obs::StatsRegistry merged;
  for_each(
      10, 4,
      [](ReplicationContext& ctx) {
        ctx.stats->counter("total").inc(ctx.index);
        ctx.stats->gauge("last").set(static_cast<double>(ctx.index));
      },
      &merged);
  // Counters accumulate across replications: 0 + 1 + ... + 9.
  EXPECT_EQ(merged.snapshot().counter("total"), 45u);
  // Gauges keep the value of the LAST replication in index order, exactly
  // as sequential reuse of one shared registry would.
  EXPECT_EQ(merged.snapshot().gauge("last"), 9.0);
}

TEST(EnsembleRunnerTest, LowestIndexExceptionWinsDeterministically) {
  for (const int jobs : {1, 4}) {
    try {
      for_each(16, jobs, [](ReplicationContext& ctx) {
        if (ctx.index == 3 || ctx.index == 7 || ctx.index == 11) {
          throw std::runtime_error("failed at " + std::to_string(ctx.index));
        }
      });
      FAIL() << "expected for_each to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "failed at 3") << "jobs=" << jobs;
    }
  }
}

TEST(EnsembleRunnerTest, AllReplicationsFinishEvenWhenSomeThrow) {
  std::atomic<int> completed{0};
  EXPECT_THROW(for_each(20, 4,
                        [&](ReplicationContext& ctx) {
                          if (ctx.index % 5 == 0) {
                            throw std::runtime_error("boom");
                          }
                          ++completed;
                        }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 16);
}

TEST(EnsembleRunnerTest, MoreJobsThanReplicationsIsFine) {
  const auto out = map<std::size_t>(
      3, 16, [](ReplicationContext& ctx) { return ctx.index; });
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
}

// The suites below keep the names they had when the fan-out was an
// executor class hierarchy (an inline executor, a thread pool and a
// separate --workers resolver); they now pin the same guarantees on
// resolve_jobs and for_each.

TEST(ResolveWorkersTest, PositivePassesThroughNonPositiveMeansHardware) {
  // cavenet-serve --workers resolves through resolve_jobs, as --jobs does.
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(5), 5);
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
  EXPECT_EQ(resolve_jobs(0), resolve_jobs(-7));
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(resolve_jobs(0), hw == 0 ? 1 : static_cast<int>(hw));
}

TEST(InlineExecutorTest, EmptyRangeIsANoOp) {
  // jobs 1 is the inline lane: an empty range runs and merges nothing.
  bool called = false;
  obs::StatsRegistry merged;
  for_each(0, 1, [&](ReplicationContext&) { called = true; }, &merged);
  EXPECT_FALSE(called);
  EXPECT_EQ(merged.snapshot().to_json(),
            obs::StatsRegistry{}.snapshot().to_json());
  const auto out = map<int>(0, 1, [&](ReplicationContext&) {
    called = true;
    return 1;
  });
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(called);
}

TEST(ThreadPoolExecutorTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  for_each(hits.size(), 4, [&](ReplicationContext& ctx) {
    hits[ctx.index].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i;
  }
}

TEST(ThreadPoolExecutorTest, SingleLanePoolStillCoversTheRange) {
  // One lane means no spawned thread at all: the caller is lane 0. That
  // holds at jobs 1, and at n == 1 whatever jobs asks for.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<std::size_t> count{0};
  for_each(100, 1, [&](ReplicationContext&) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100u);
  for (const int jobs : {2, 4, 16}) {
    std::atomic<int> calls{0};
    for_each(1, jobs, [&](ReplicationContext& ctx) {
      EXPECT_EQ(ctx.index, 0u);
      EXPECT_EQ(std::this_thread::get_id(), caller) << "jobs=" << jobs;
      ++calls;
    });
    EXPECT_EQ(calls.load(), 1) << "jobs=" << jobs;
  }
}

TEST(ThreadPoolExecutorTest, DisjointSlotWritesMatchSerialBytewise) {
  // Identical per-index arithmetic into disjoint slots yields
  // bitwise-identical doubles at any lane count.
  const std::size_t n = 4096;
  const auto compute = [](ReplicationContext& ctx) {
    const double x = static_cast<double>(ctx.index);
    return std::sin(x) * 1e-3 + std::sqrt(x + 1.0) / (x + 2.0);
  };
  const auto serial = map<double>(n, 1, compute);
  const auto pooled = map<double>(n, 3, compute);
  ASSERT_EQ(serial.size(), n);
  ASSERT_EQ(pooled.size(), n);
  EXPECT_EQ(std::memcmp(serial.data(), pooled.data(), n * sizeof(double)), 0);
}

TEST(ThreadPoolExecutorTest, RethrowsTheLowestBeginChunkFailure) {
  // Index 7 throws only after index 100 has thrown on another lane: the
  // rethrown exception is still index 7's, not the first to be raised.
  std::atomic<bool> high_failed{false};
  try {
    for_each(256, 4, [&](ReplicationContext& ctx) {
      if (ctx.index == 7) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!high_failed.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw std::runtime_error("boom 7");
      }
      if (ctx.index == 100) {
        high_failed.store(true);
        throw std::runtime_error("boom 100");
      }
    });
    FAIL() << "expected for_each to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");
  }
  EXPECT_TRUE(high_failed.load());
}

}  // namespace
}  // namespace cavenet::runner
