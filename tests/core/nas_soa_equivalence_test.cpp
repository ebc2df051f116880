// Randomized SoA-vs-reference equivalence harness (PR 9 tentpole gate).
//
// step() runs the NaS update as vectorizable passes over the SoA
// LaneState; step_reference() is the seed's scalar kernel kept verbatim.
// Both consume the same RNG stream, so from identical seeds every step
// of every trajectory must match byte-for-byte: full Vehicle state in
// site order, the RNG-driven fields included. The matrix sweeps
// placements x boundaries x blocked cells x densities; any divergence
// prints the first mismatching step and vehicle.
#include "core/nas_lane.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/lane_simd.h"
#include "util/rng.h"

namespace cavenet::ca {
namespace {

struct Case {
  std::string name;
  std::int64_t lane_length;
  std::int64_t vehicles;
  double slowdown_p;
  Boundary boundary;
  InitialPlacement placement;
  std::vector<std::int64_t> blocked;
};

std::vector<Case> equivalence_cases() {
  std::vector<Case> cases;
  const auto add = [&](std::string name, std::int64_t length,
                       std::int64_t vehicles, double p, Boundary boundary,
                       InitialPlacement placement,
                       std::vector<std::int64_t> blocked = {}) {
    cases.push_back({std::move(name), length, vehicles, p, boundary, placement,
                     std::move(blocked)});
  };
  // Densities 0.05 / 0.3 / 0.8 on both boundaries, random placement.
  for (const auto boundary : {Boundary::kClosed, Boundary::kOpenShift}) {
    const char* b = boundary == Boundary::kClosed ? "closed" : "open";
    add(std::string("sparse_") + b, 400, 20, 0.3, boundary,
        InitialPlacement::kRandom);
    add(std::string("mid_") + b, 400, 120, 0.3, boundary,
        InitialPlacement::kRandom);
    add(std::string("dense_") + b, 400, 320, 0.3, boundary,
        InitialPlacement::kRandom);
    // Deterministic placements and the p = 0 / p = 1 slowdown ends.
    add(std::string("even_") + b, 100, 25, 0.0, boundary,
        InitialPlacement::kEven);
    add(std::string("jam_") + b, 100, 40, 1.0, boundary,
        InitialPlacement::kJam);
    // Blocked cells, including site 0 and a cell just past the midpoint.
    add(std::string("blocked_") + b, 200, 60, 0.25, boundary,
        InitialPlacement::kRandom, {0, 101, 199});
  }
  // Odd length + near-full ring: exercises the head rotation with
  // non-multiple-of-SIMD-width tails and constant wrapping.
  add("odd_full_closed", 97, 90, 0.5, Boundary::kClosed,
      InitialPlacement::kRandom);
  // Tiny lanes: n = 1 and n = 2 hit the lone-vehicle / seam-only paths.
  add("lone_closed", 50, 1, 0.4, Boundary::kClosed, InitialPlacement::kRandom);
  add("lone_open", 50, 1, 0.4, Boundary::kOpenShift, InitialPlacement::kRandom);
  add("pair_closed", 50, 2, 0.4, Boundary::kClosed, InitialPlacement::kRandom);
  add("pair_open_blocked", 50, 2, 0.4, Boundary::kOpenShift,
      InitialPlacement::kRandom, {0, 25});
  return cases;
}

void expect_identical(const NasLane& soa, const NasLane& ref,
                      const Case& c, std::uint64_t seed, int step) {
  ASSERT_EQ(soa.vehicle_count(), ref.vehicle_count());
  const auto a = soa.vehicles();
  const auto b = ref.vehicles();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << c.name << " seed " << seed << " step " << step
                          << " site " << i << ": soa {id " << a[i].id
                          << " cell " << a[i].cell << " v " << a[i].velocity
                          << " gap " << a[i].gap << " wraps " << a[i].wraps
                          << "} ref {id " << b[i].id << " cell " << b[i].cell
                          << " v " << b[i].velocity << " gap " << b[i].gap
                          << " wraps " << b[i].wraps << "}";
  }
  // Derived observers must match to the bit, not just approximately.
  ASSERT_EQ(soa.average_velocity(), ref.average_velocity());
  ASSERT_EQ(soa.occupancy(), ref.occupancy());
}

TEST(NasSoaEquivalence, MatchesReferenceAcrossMatrix) {
  for (const Case& c : equivalence_cases()) {
    for (const std::uint64_t seed : {7ULL, 1234ULL, 987654321ULL}) {
      NasParams params;
      params.lane_length = c.lane_length;
      params.slowdown_p = c.slowdown_p;
      params.boundary = c.boundary;
      NasLane soa(params, c.vehicles, c.placement, Rng(seed));
      NasLane ref(params, c.vehicles, c.placement, Rng(seed));
      for (const std::int64_t cell : c.blocked) {
        soa.block_cell(cell);
        ref.block_cell(cell);
      }
      expect_identical(soa, ref, c, seed, -1);
      for (int step = 0; step < 120; ++step) {
        soa.step();
        ref.step_reference();
        expect_identical(soa, ref, c, seed, step);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Blocked cells toggling mid-run (a traffic light): both kernels must
// track the sorted blocked set identically through inserts and erases.
TEST(NasSoaEquivalence, MatchesReferenceWithTogglingBlocks) {
  NasParams params;
  params.lane_length = 150;
  params.slowdown_p = 0.3;
  params.boundary = Boundary::kClosed;
  NasLane soa(params, 50, InitialPlacement::kRandom, Rng(42));
  NasLane ref(params, 50, InitialPlacement::kRandom, Rng(42));
  for (int step = 0; step < 200; ++step) {
    const std::int64_t cell = (step * 37) % params.lane_length;
    if (step % 3 == 0) {
      soa.block_cell(cell);
      ref.block_cell(cell);
    } else if (step % 3 == 1) {
      soa.unblock_cell(cell);
      ref.unblock_cell(cell);
    }
    ASSERT_EQ(soa.is_blocked(cell), ref.is_blocked(cell));
    soa.step();
    ref.step_reference();
    const auto a = soa.vehicles();
    const auto b = ref.vehicles();
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "step " << step << " site " << i;
    }
  }
}

// Interleaving the two kernels on ONE lane must also be seamless: the
// SoA passes and the scalar kernel leave bit-identical state AND RNG
// cursor behind, so handing a lane back and forth cannot diverge from a
// lane stepped by either kernel alone.
TEST(NasSoaEquivalence, KernelsInterleaveOnOneLane) {
  NasParams params;
  params.lane_length = 200;
  params.slowdown_p = 0.4;
  params.boundary = Boundary::kClosed;
  NasLane mixed(params, 80, InitialPlacement::kRandom, Rng(99));
  NasLane pure(params, 80, InitialPlacement::kRandom, Rng(99));
  for (int step = 0; step < 100; ++step) {
    if (step % 2 == 0) {
      mixed.step();
    } else {
      mixed.step_reference();
    }
    pure.step();
    const auto a = mixed.vehicles();
    const auto b = pure.vehicles();
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "step " << step << " site " << i;
    }
  }
}

// The SIMD primitives themselves against straight scalar loops, over
// lengths that cover every tail-remainder class of the vector width.
TEST(NasSoaEquivalence, SimdPrimitivesMatchScalar) {
  Rng rng(2024);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 64u,
                        100u, 1000u}) {
    std::vector<std::int64_t> cell(n);
    std::vector<std::int32_t> velocity(n);
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1 + static_cast<std::int64_t>(rng.uniform_int(5));
      cell[i] = acc;
      velocity[i] = static_cast<std::int32_t>(rng.uniform_int(6));
    }

    std::vector<std::int64_t> gap(n, -777), gap_ref(n, -777);
    simd::gap_shifted_diff(cell.data(), gap.data(), n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      gap_ref[i] = cell[i + 1] - cell[i] - 1;
    }
    EXPECT_EQ(gap, gap_ref) << "gap n=" << n;

    std::vector<std::int32_t> vel = velocity, vel_ref = velocity;
    gap[n - 1] = 3;  // give the tail a real gap before the velocity pass
    simd::velocity_min_clamp(vel.data(), gap.data(), 5, n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t accel = std::min(vel_ref[i] + 1, 5);
      vel_ref[i] = static_cast<std::int32_t>(
          std::min<std::int64_t>(accel, gap[i]));
    }
    EXPECT_EQ(vel, vel_ref) << "velocity n=" << n;

    // The fused pass must equal the two separate passes on the interior
    // and leave the tail entry (the caller's patch site) untouched.
    std::vector<std::int64_t> gap_fused(n, -777);
    std::vector<std::int32_t> vel_fused = velocity;
    simd::gap_clamp(cell.data(), gap_fused.data(), vel_fused.data(), 5, n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      EXPECT_EQ(gap_fused[i], gap_ref[i]) << "fused gap n=" << n << " i=" << i;
      EXPECT_EQ(vel_fused[i], vel_ref[i]) << "fused vel n=" << n << " i=" << i;
    }
    EXPECT_EQ(gap_fused[n - 1], -777) << "fused tail gap n=" << n;
    EXPECT_EQ(vel_fused[n - 1], velocity[n - 1]) << "fused tail vel n=" << n;

    std::vector<std::int64_t> moved = cell, moved_ref = cell;
    simd::advance_cells(moved.data(), vel.data(), n);
    for (std::size_t i = 0; i < n; ++i) moved_ref[i] += vel[i];
    EXPECT_EQ(moved, moved_ref) << "advance n=" << n;

    std::int64_t sum_ref = 0;
    for (std::size_t i = 0; i < n; ++i) sum_ref += vel[i];
    EXPECT_EQ(simd::sum_velocity(vel.data(), n), sum_ref) << "sum n=" << n;

    // compress_moving: ascending moving indices, split at an arbitrary
    // point the way the slowdown pass splits at the ring head. The
    // scratch needs room for the full range (8-wide store slack).
    for (const std::size_t split : {std::size_t{0}, n / 2, n}) {
      std::vector<std::uint32_t> packed(n, 9999);
      std::size_t m = simd::compress_moving(vel.data(), split, n,
                                            packed.data());
      m += simd::compress_moving(vel.data(), 0, split, packed.data() + m);
      std::vector<std::uint32_t> packed_ref;
      for (std::size_t i = split; i < n; ++i) {
        if (vel[i] > 0) packed_ref.push_back(static_cast<std::uint32_t>(i));
      }
      for (std::size_t i = 0; i < split; ++i) {
        if (vel[i] > 0) packed_ref.push_back(static_cast<std::uint32_t>(i));
      }
      ASSERT_EQ(m, packed_ref.size()) << "compress n=" << n << " split="
                                      << split;
      packed.resize(m);
      EXPECT_EQ(packed, packed_ref) << "compress n=" << n << " split="
                                    << split;
    }
  }
}

// Saturation edge: gaps beyond int32 range clamp instead of wrapping.
TEST(NasSoaEquivalence, VelocityClampSaturatesHugeGaps) {
  std::vector<std::int64_t> gap = {std::int64_t{1} << 40,
                                   std::int64_t{1} << 33,
                                   2147483647LL,
                                   2147483648LL,
                                   0,
                                   1,
                                   std::int64_t{1} << 50,
                                   3};
  std::vector<std::int32_t> vel = {0, 1, 2, 3, 4, 5, 0, 1};
  simd::velocity_min_clamp(vel.data(), gap.data(), 5, gap.size());
  EXPECT_EQ(vel, (std::vector<std::int32_t>{1, 2, 3, 4, 0, 1, 1, 2}));
}

}  // namespace
}  // namespace cavenet::ca
