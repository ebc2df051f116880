// OLSR byte pin: Table-I runs on the circle and on the line layout, each
// reduced to the FNV-1a digest of its SenderRunResult (hexfloats) and
// stats-registry JSON. The kernel fixture holds one OLSR run; these
// points pin the rest of the protocol's route computation, including
// which of several equal-hop next hops a route takes. A digest that moves
// means OLSR's output changed, byte for byte.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "obs/stats_registry.h"
#include "scenario/run_dump.h"
#include "scenario/table1.h"

namespace cavenet::scenario {
namespace {

struct Point {
  bool circular_layout;
  std::uint64_t seed;
  std::int32_t vehicles;
  netsim::NodeId sender;
  std::uint64_t digest;
};

// Captured from the build that recomputed the route table on every HELLO
// and TC.
constexpr Point kPoints[] = {
    {true, 11, 32, 5, 2133614943354043741ull},
    {true, 15, 24, 5, 14616442449621031423ull},
    {false, 13, 24, 5, 4967332066972352329ull},
    {false, 16, 32, 5, 7884454838746404411ull},
};

TEST(OlsrEquivalenceTest, TableIRunsMatchPinnedDigests) {
  for (const Point& p : kPoints) {
    TableIConfig config;
    config.protocol = Protocol::kOlsr;
    config.circular_layout = p.circular_layout;
    config.seed = p.seed;
    config.vehicles = p.vehicles;
    config.lane_cells = p.vehicles * 13;
    config.sender = p.sender;
    config.duration_s = 40.0;
    config.traffic_start_s = 8.0;
    config.traffic_stop_s = 36.0;
    obs::StatsRegistry stats;
    config.obs.stats = &stats;
    const SenderRunResult r = run_table1(config);
    // Each point routes data, so route reads are part of what is pinned.
    EXPECT_GT(r.rx_packets, 0u) << "seed " << p.seed;
    EXPECT_EQ(test::fnv1a(test::dump_result(r) + stats.snapshot().to_json()),
              p.digest)
        << "seed " << p.seed << " circular " << p.circular_layout;
  }
}

}  // namespace
}  // namespace cavenet::scenario
