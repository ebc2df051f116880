#include "core/nas_lane.h"

#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

namespace cavenet::ca {
namespace {

NasParams default_params(std::int64_t length = 100, double p = 0.0) {
  NasParams params;
  params.lane_length = length;
  params.slowdown_p = p;
  return params;
}

TEST(NasParamsTest, ValidationRejectsBadValues) {
  NasParams p;
  p.lane_length = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = NasParams{};
  p.v_max = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = NasParams{};
  p.slowdown_p = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = NasParams{};
  p.cell_length_m = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = NasParams{};
  p.dt_s = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(NasParamsTest, PaperUnits) {
  // v_max = 5 cells/step, 7.5 m cells, 1 s steps -> 135 km/h (paper Sec. III-A).
  const NasParams p;
  EXPECT_DOUBLE_EQ(p.v_max_kmh(), 135.0);
  EXPECT_DOUBLE_EQ(p.lane_length_m(), 3000.0);
}

TEST(NasLaneTest, RejectsTooManyVehicles) {
  EXPECT_THROW(NasLane(default_params(10), 11), std::invalid_argument);
  EXPECT_THROW(NasLane(default_params(10), -1), std::invalid_argument);
}

TEST(NasLaneTest, RandomPlacementGivesDistinctSortedCells) {
  NasLane lane(default_params(50), 30, InitialPlacement::kRandom, Rng(1));
  std::set<std::int64_t> cells;
  std::int64_t prev = -1;
  for (const Vehicle& v : lane.vehicles()) {
    EXPECT_GT(v.cell, prev);
    prev = v.cell;
    cells.insert(v.cell);
    EXPECT_GE(v.velocity, 0);
    EXPECT_LE(v.velocity, lane.params().v_max);
  }
  EXPECT_EQ(cells.size(), 30u);
}

TEST(NasLaneTest, EvenPlacementSpacing) {
  NasLane lane(default_params(100), 10, InitialPlacement::kEven);
  const auto vehicles = lane.vehicles();
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    EXPECT_EQ(vehicles[i].cell, static_cast<std::int64_t>(i) * 10);
    EXPECT_EQ(vehicles[i].velocity, 0);
  }
}

TEST(NasLaneTest, JamPlacementPacksFromZero) {
  NasLane lane(default_params(100), 5, InitialPlacement::kJam);
  const auto vehicles = lane.vehicles();
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    EXPECT_EQ(vehicles[i].cell, static_cast<std::int64_t>(i));
  }
}

TEST(NasLaneTest, DensityIsNOverL) {
  NasLane lane(default_params(200), 50, InitialPlacement::kEven);
  EXPECT_DOUBLE_EQ(lane.density(), 0.25);
}

TEST(NasLaneTest, LoneVehicleReachesAndHoldsVmax) {
  NasLane lane(default_params(100), 1, InitialPlacement::kEven);
  lane.run(10);
  EXPECT_EQ(lane.vehicles()[0].velocity, lane.params().v_max);
  EXPECT_DOUBLE_EQ(lane.average_velocity(), 5.0);
  EXPECT_DOUBLE_EQ(lane.average_velocity_ms(), 37.5);
}

TEST(NasLaneTest, DeterministicFreeFlowVelocity) {
  // At low density with p = 0 every vehicle eventually cruises at v_max.
  NasLane lane(default_params(100, 0.0), 10, InitialPlacement::kEven);
  lane.run(50);
  for (const Vehicle& v : lane.vehicles()) {
    EXPECT_EQ(v.velocity, lane.params().v_max);
  }
}

TEST(NasLaneTest, FullJamNeverMoves) {
  // Density 1: every site occupied, gaps are all zero.
  NasLane lane(default_params(20, 0.0), 20, InitialPlacement::kJam);
  lane.run(30);
  for (const Vehicle& v : lane.vehicles()) {
    EXPECT_EQ(v.velocity, 0);
  }
  EXPECT_DOUBLE_EQ(lane.flow(), 0.0);
}

TEST(NasLaneTest, JamDissolvesFromTheFront) {
  NasLane lane(default_params(100, 0.0), 10, InitialPlacement::kJam);
  lane.step();
  // After one step only the lead vehicle (largest cell) can have moved.
  int moved = 0;
  for (const Vehicle& v : lane.vehicles()) {
    if (v.velocity > 0) ++moved;
  }
  EXPECT_EQ(moved, 1);
}

TEST(NasLaneTest, OccupancyMatchesVehicles) {
  NasLane lane(default_params(30), 7, InitialPlacement::kRandom, Rng(2));
  const auto occ = lane.occupancy();
  std::size_t occupied = 0;
  for (const auto v : occ) {
    if (v >= 0) ++occupied;
  }
  EXPECT_EQ(occupied, 7u);
  for (const Vehicle& v : lane.vehicles()) {
    EXPECT_EQ(occ[static_cast<std::size_t>(v.cell)], v.velocity);
  }
}

TEST(NasLaneTest, VehicleByIdFindsAll) {
  NasLane lane(default_params(40), 8, InitialPlacement::kRandom, Rng(3));
  lane.run(20);
  for (std::uint32_t id = 0; id < 8; ++id) {
    EXPECT_EQ(lane.vehicle_by_id(id).id, id);
  }
  EXPECT_THROW(lane.vehicle_by_id(8), std::out_of_range);
}

TEST(NasLaneTest, WrapsAccumulateOnClosedLane) {
  NasLane lane(default_params(20, 0.0), 1, InitialPlacement::kEven);
  lane.run(100);  // a lone car at v=5 laps a 20-cell ring many times
  const Vehicle& v = lane.vehicles()[0];
  EXPECT_GT(v.wraps, 20);
  // Cumulative position is monotone: ~5 cells per step after warm-up.
  EXPECT_NEAR(lane.cumulative_position_m(v), 100 * 5 * 7.5, 5 * 7.5 * 5);
}

TEST(NasLaneTest, TimeStepCounts) {
  NasLane lane(default_params(), 5, InitialPlacement::kEven);
  EXPECT_EQ(lane.time_step(), 0);
  lane.run(13);
  EXPECT_EQ(lane.time_step(), 13);
}

TEST(NasLaneTest, SameSeedReproducesExactly) {
  NasLane a(default_params(100, 0.4), 30, InitialPlacement::kRandom, Rng(7));
  NasLane b(default_params(100, 0.4), 30, InitialPlacement::kRandom, Rng(7));
  for (int i = 0; i < 200; ++i) {
    a.step();
    b.step();
  }
  const auto va = a.vehicles();
  const auto vb = b.vehicles();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
}

TEST(NasLaneTest, SequentialUpdateDiffersFromParallel) {
  NasLane parallel(default_params(60, 0.0), 30, InitialPlacement::kJam);
  NasLane sequential(default_params(60, 0.0), 30, InitialPlacement::kJam);
  for (int i = 0; i < 5; ++i) {
    parallel.step();
    sequential.step_sequential();
  }
  // Sequential update lets followers react within the same step, so the
  // jam dissolves faster — average velocity is strictly higher.
  EXPECT_GT(sequential.average_velocity(), parallel.average_velocity());
}

TEST(NasLaneTest, OpenShiftReseatsAtHeadOfLane) {
  NasParams params = default_params(20, 0.0);
  params.boundary = Boundary::kOpenShift;
  NasLane lane(params, 3, InitialPlacement::kEven);
  // Run long enough for the lead vehicle to exit several times.
  std::int64_t total_wraps = 0;
  for (int i = 0; i < 50; ++i) {
    lane.step();
    std::set<std::int64_t> cells;
    for (const Vehicle& v : lane.vehicles()) {
      // No overlaps ever, and positions stay on the lane.
      EXPECT_TRUE(cells.insert(v.cell).second);
      EXPECT_GE(v.cell, 0);
      EXPECT_LT(v.cell, params.lane_length);
    }
  }
  for (const Vehicle& v : lane.vehicles()) total_wraps += v.wraps;
  EXPECT_GT(total_wraps, 0);
}

TEST(NasLaneTest, StochasticSlowdownReducesMeanVelocity) {
  NasLane calm(default_params(200, 0.0), 20, InitialPlacement::kEven, Rng(1));
  NasLane noisy(default_params(200, 0.5), 20, InitialPlacement::kEven, Rng(1));
  double calm_sum = 0.0, noisy_sum = 0.0;
  for (int i = 0; i < 300; ++i) {
    calm.step();
    noisy.step();
    calm_sum += calm.average_velocity();
    noisy_sum += noisy.average_velocity();
  }
  EXPECT_GT(calm_sum, noisy_sum * 1.1);
}

// Regression: step_sequential used to apply the closed-boundary wrap
// (cell -= L in place) on open lanes too, teleporting the leader mid-lane
// — potentially onto an occupied cell. Open lanes must use the kOpenShift
// re-seat semantics: first free site from the head, standstill.
TEST(NasLaneTest, SequentialOpenBoundaryReseatsInsteadOfWrapping) {
  NasParams params = default_params(20, 0.0);
  params.boundary = Boundary::kOpenShift;
  // Jam at the head: sites 0..4 occupied, leader at 4.
  NasLane lane(params, 5, InitialPlacement::kJam, Rng(3));
  for (int step = 0; step < 30; ++step) {
    lane.step_sequential();
    std::set<std::int64_t> cells;
    for (const Vehicle& v : lane.vehicles()) {
      // Every cell stays on the lane...
      ASSERT_GE(v.cell, 0) << "step " << step;
      ASSERT_LT(v.cell, params.lane_length) << "step " << step;
      // ...and no two vehicles ever share one (the old in-place wrap
      // could collide a wrapped leader with a vehicle near site 0).
      ASSERT_TRUE(cells.insert(v.cell).second)
          << "step " << step << ": duplicate cell " << v.cell;
    }
  }
  // The leaders did drive past the end (wraps accumulated) and were
  // re-seated at standstill rather than carried across with velocity.
  std::int64_t total_wraps = 0;
  for (const Vehicle& v : lane.vehicles()) total_wraps += v.wraps;
  EXPECT_GT(total_wraps, 0);
}

TEST(NasLaneTest, SequentialLoneOpenVehicleSeesOpenRoad) {
  NasParams params = default_params(10, 0.0);
  params.boundary = Boundary::kOpenShift;
  NasLane lane(params, 1, InitialPlacement::kJam, Rng(1));
  // gap = L on an open lane (not L-1): the vehicle accelerates every
  // step until v_max even while wrapping through re-seats.
  for (int i = 0; i < 5; ++i) lane.step_sequential();
  EXPECT_EQ(lane.vehicles()[0].gap, params.lane_length);
}

// kOpenShift landing-site collision: rule 2 ignores vehicles near site 0,
// so a fast leader can "land" on an occupied cell — it must be re-seated
// on the first FREE site instead, at velocity 0.
TEST(NasLaneTest, OpenShiftLandingOnOccupiedSiteForcesReseat) {
  NasParams params = default_params(10, 0.0);
  params.v_max = 5;
  params.boundary = Boundary::kOpenShift;
  // Sites 0 and 1 occupied by a standing pair (they accelerate slowly);
  // leader at site 8 with open road ahead drives past the end.
  NasLane lane(params, 3, InitialPlacement::kJam, Rng(1));
  // Jam places vehicles at 0, 1, 2. Step until a leader wraps; on the
  // step a vehicle's wrap count rises it was re-seated: on-lane, on a
  // free site, at standstill.
  std::vector<std::int64_t> last_wraps(3, 0);
  int reseats = 0;
  for (int step = 0; step < 30; ++step) {
    lane.step();
    std::set<std::int64_t> cells;
    for (const Vehicle& v : lane.vehicles()) {
      ASSERT_TRUE(cells.insert(v.cell).second)
          << "step " << step << ": two vehicles on cell " << v.cell;
      ASSERT_GE(v.cell, 0);
      ASSERT_LT(v.cell, params.lane_length);
      if (v.wraps > last_wraps[v.id]) {
        ++reseats;
        EXPECT_EQ(v.velocity, 0)
            << "step " << step << ": re-seated vehicle kept velocity";
      }
      last_wraps[v.id] = v.wraps;
    }
  }
  EXPECT_GT(reseats, 0);
}

TEST(NasLaneTest, BlockedCellAtSiteZeroOnClosedRing) {
  NasParams params = default_params(30, 0.0);
  params.boundary = Boundary::kClosed;
  NasLane lane(params, 3, InitialPlacement::kEven, Rng(1));
  lane.block_cell(0);
  EXPECT_TRUE(lane.is_blocked(0));
  for (int step = 0; step < 100; ++step) {
    lane.step();
    for (const Vehicle& v : lane.vehicles()) {
      // Nobody may ever sit on the blocked site; the ring wrap of
      // gap_to_block (blocked.front() + L - cell - 1) must stop the
      // vehicle approaching site 0 from the high end of the ring.
      ASSERT_NE(v.cell, 0) << "step " << step;
    }
  }
  // Traffic piles up behind the obstacle: the lane ends jammed.
  EXPECT_EQ(lane.average_velocity(), 0.0);
  const auto& vehicles = lane.vehicles();
  EXPECT_EQ(vehicles[vehicles.size() - 1].cell, params.lane_length - 1);
}

TEST(NasLaneTest, LoneVehicleWithBlockedCellBehindIt) {
  NasParams params = default_params(40, 0.0);
  params.boundary = Boundary::kClosed;
  NasLane lane(params, 1, InitialPlacement::kJam, Rng(1));  // at site 0
  lane.block_cell(39);  // behind the vehicle (ahead only across the wrap)
  for (int step = 0; step < 60; ++step) {
    lane.step();
    const Vehicle& v = lane.vehicles()[0];
    // The lone-vehicle gap (L - 1 on a ring) must still be capped by the
    // circular gap_to_block: the obstacle is "ahead" across the wrap.
    ASSERT_NE(v.cell, 39) << "step " << step;
    ASSERT_GE(v.cell, 0);
    ASSERT_LT(v.cell, params.lane_length);
  }
  // An obstacle is impassable for a lone vehicle: it drives up to the
  // site before it and parks there — it never wraps.
  EXPECT_EQ(lane.vehicles()[0].cell, 38);
  EXPECT_EQ(lane.vehicles()[0].velocity, 0);
  EXPECT_EQ(lane.vehicles()[0].wraps, 0);
}

TEST(NasLaneTest, VehicleByIdRejectsUnknownId) {
  NasLane lane(default_params(), 4, InitialPlacement::kEven, Rng(1));
  EXPECT_THROW(lane.vehicle_by_id(4), std::out_of_range);
  EXPECT_EQ(lane.vehicle_by_id(3).id, 3u);
}

}  // namespace
}  // namespace cavenet::ca
