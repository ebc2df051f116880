// Timing gates that measure a ratio inside one process.
//
// Each gate times a fast path against its in-tree reference in
// interleaved rounds (alternating which side goes first) and asserts a
// floor on the median per-round ratio. Both sides share the host, the
// process and the moment, so machine speed and background load cancel
// out of the ratio; what is left is the mechanism the gate is named for.
//
//  * NaS: the SoA NasLane::step() against step_reference(), the seed's
//    scalar kernel run on an AoS copy.
//  * Channel: the anchored grid candidate search against the kLinear scan,
//    on one Table-I-density AODV point large enough to cull.
//  * Teardown: detaching N radios against attaching them, both O(N); a
//    detach that rescans the fleet makes the ratio grow with N.
//
// The speedup floors sit between the unchanged tree's ratios and those of
// a build whose fast side does twice the work (docs/SCALING.md).
// Registered as the perf-smoke ctests bench_check_nas, bench_check_scale
// and bench_check_teardown, in uninstrumented builds only.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/nas_lane.h"
#include "netsim/mobility.h"
#include "phy/channel.h"
#include "phy/wifi_phy.h"
#include "scenario/table1.h"
#include "util/rng.h"

namespace cavenet {
namespace {

// Medians on a shared 4-vCPU Xeon VM: the unchanged tree read 7.9-13.2x
// (NaS) over 100 runs, and a step doing twice its work 4.3-5.1x. The
// anchored grid read 4.8-7.0x over 85 runs; a grid side spun out to 1.3x
// its own time read 3.7-4.5x and failed this floor in 22 of 25 runs.
constexpr double kNasFloor = 6.0;
constexpr double kGridFloor = 4.4;
// t_teardown / t_attach at N = 16 000, same VM: medians 0.31-0.50 over 50
// runs with O(1) detach, 318-458 when every detach rescanned the fleet.
constexpr double kTeardownCeiling = 5.0;

double seconds(const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Prints the per-round ratios and returns their median.
double median_of(std::vector<double> ratios) {
  std::cout << "per-round ratios:";
  for (const double r : ratios) std::cout << ' ' << r;
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[ratios.size() / 2];
  std::cout << "\nmedian " << median << '\n';
  return median;
}

/// Median over `rounds` of t_reference / t_fast, the two sides timed
/// back to back with the order alternating per round.
double median_ratio(int rounds, const std::function<void()>& fast,
                    const std::function<void()>& reference) {
  std::vector<double> ratios;
  for (int round = 0; round < rounds; ++round) {
    double t_fast = 0.0;
    double t_reference = 0.0;
    if (round % 2 == 0) {
      t_fast = seconds(fast);
      t_reference = seconds(reference);
    } else {
      t_reference = seconds(reference);
      t_fast = seconds(fast);
    }
    ratios.push_back(t_reference / t_fast);
  }
  return median_of(std::move(ratios));
}

TEST(PerfGate, NasSoaStepOutrunsTheReferenceKernel) {
  // BM_NasLaneStep/40000's lane.
  ca::NasParams params;
  params.lane_length = 40000;
  params.slowdown_p = 0.3;
  ca::NasLane soa(params, 10000, ca::InitialPlacement::kRandom, Rng(1));
  ca::NasLane reference(params, 10000, ca::InitialPlacement::kRandom, Rng(1));
  const double ratio = median_ratio(
      7,
      [&soa] {
        for (int i = 0; i < 50; ++i) soa.step();
      },
      [&reference] {
        for (int i = 0; i < 50; ++i) reference.step_reference();
      });
  EXPECT_GE(ratio, kNasFloor) << "t_reference / t_step";
}

TEST(PerfGate, GridChannelOutrunsTheLinearScan) {
  // One AODV point at the Table-I density (30 vehicles on 400 cells).
  scenario::TableIConfig config;
  config.vehicles = 2000;
  config.lane_cells = std::llround(2000 * 400.0 / 30.0);
  config.duration_s = 4.0;
  config.traffic_start_s = 1.0;
  config.traffic_stop_s = 4.0;
  scenario::TableIConfig linear = config;
  linear.channel_index = phy::ChannelIndex::kLinear;

  std::vector<std::uint64_t> grid_events;
  std::vector<std::uint64_t> linear_events;
  const double ratio = median_ratio(
      5,
      [&] { grid_events.push_back(run_table1(config).events_dispatched); },
      [&] { linear_events.push_back(run_table1(linear).events_dispatched); });
  EXPECT_GE(ratio, kGridFloor) << "t_linear / t_grid";
  EXPECT_EQ(grid_events, linear_events);
}

TEST(PerfGate, ChannelTeardownCostsNoMoreThanAttach) {
  // Teardown must follow attach, so the rounds cannot alternate sides;
  // each round times both on a fresh channel.
  constexpr int kRadios = 16000;
  netsim::Simulator sim(1);
  const netsim::StaticMobility parked({0.0, 0.0});
  std::vector<std::unique_ptr<phy::WifiPhy>> radios;
  for (int i = 0; i < kRadios; ++i) {
    radios.push_back(std::make_unique<phy::WifiPhy>(
        sim, static_cast<netsim::NodeId>(i), &parked));
  }
  std::vector<double> ratios;
  for (int round = 0; round < 5; ++round) {
    phy::Channel channel(sim, std::make_unique<phy::TwoRayGroundModel>());
    std::vector<phy::Channel::Attachment> links;
    links.reserve(kRadios);
    const double t_attach = seconds([&] {
      for (const auto& radio : radios) {
        links.push_back(channel.attach(radio.get()));
      }
    });
    const double t_teardown = seconds([&] { links.clear(); });
    ratios.push_back(t_teardown / t_attach);
  }
  EXPECT_LE(median_of(std::move(ratios)), kTeardownCeiling)
      << "t_teardown / t_attach";
}

}  // namespace
}  // namespace cavenet
