// The 1-dimensional Nagel-Schreckenberg cellular automaton — the core of
// the CAVENET Behavioural Analyzer (paper Section III-A).
//
// Update rules, applied in parallel to every vehicle at each step:
//   1. Acceleration:     v <- min(v + 1, v_max)
//   2. Gap constraint:   v <- min(v, gap)        (gap = free sites ahead)
//   2'. Random slowdown: v <- max(0, v - 1) with probability p
//   3. Motion:           x <- x + v
//
// step() runs the rules as four passes over a structure-of-arrays
// LaneState (docs/SCALING.md "Mobility SIMD"): a shifted-difference gap
// pass, a branch-free min/clamp velocity pass, a Bernoulli slowdown
// pass, and a wrap/rotate motion pass. The first, second and fourth
// vectorize (core/lane_simd.h); the slowdown pass consumes RNG draws in
// exactly the seed kernel's order — one uniform() per vehicle with
// post-clamp velocity > 0, in site order — which is what keeps every
// trajectory byte-identical to step_reference(), the retained scalar
// kernel the randomized equivalence harness compares against.
#ifndef CAVENET_CORE_NAS_LANE_H
#define CAVENET_CORE_NAS_LANE_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/lane_state.h"
#include "core/params.h"
#include "core/vehicle.h"
#include "util/rng.h"

namespace cavenet::ca {

/// How vehicles are placed at t = 0.
enum class InitialPlacement {
  /// N distinct uniformly random sites, random velocities in [0, v_max].
  kRandom,
  /// Evenly spaced sites, all velocities 0 (deterministic start).
  kEven,
  /// All vehicles packed at the head of the lane (a standing jam).
  kJam,
};

/// One lane of NaS traffic. Vehicles are kept sorted by site index.
class NasLane {
 public:
  /// Places `n_vehicles` on the lane. Throws if n_vehicles > lane_length
  /// or params are invalid.
  NasLane(NasParams params, std::int64_t n_vehicles,
          InitialPlacement placement = InitialPlacement::kRandom,
          Rng rng = Rng{});

  /// Advances the automaton one time step (parallel update).
  void step();
  /// Advances `n` steps.
  void run(std::int64_t n);

  /// The seed's scalar kernel, kept verbatim as the reference step():
  /// per-vehicle gap/velocity/slowdown in one loop, motion with
  /// std::rotate / re-seat. Bit-identical to step() (same RNG draw
  /// order, same arithmetic) — the randomized SoA-vs-reference harness
  /// asserts this; prefer step() everywhere else.
  void step_reference();

  const NasParams& params() const noexcept { return params_; }
  std::int64_t time_step() const noexcept { return time_step_; }
  std::int64_t vehicle_count() const noexcept {
    return static_cast<std::int64_t>(state_.size());
  }
  /// Density rho = N / L.
  double density() const noexcept;

  /// The raw structure-of-arrays state (see LaneState for the site-order
  /// / ring-head layout). Valid until the next step().
  const LaneState& state() const noexcept { return state_; }

  /// The vehicles in site order. Valid until the next step(). Backed by
  /// a per-step cache materialized from the SoA state on first use.
  std::span<const Vehicle> vehicles() const;
  /// Vehicle by stable id (not site order). O(1) via an id -> site-index
  /// map maintained lazily across rotates and re-sorts.
  const Vehicle& vehicle_by_id(std::uint32_t id) const;

  /// Average velocity over vehicles, in cells/step (the paper's v(t)).
  double average_velocity() const noexcept;
  /// Average velocity in m/s.
  double average_velocity_ms() const noexcept;
  /// Flow J = rho * v_bar at this instant (vehicles per site per step).
  double flow() const noexcept;

  /// Site occupancy as the paper's lane vector L_n: velocity of the
  /// vehicle at each occupied site, -1 for empty sites. Returns a
  /// reusable member buffer (overwritten by the next call).
  const std::vector<std::int32_t>& occupancy() const;

  /// Distance in metres from the lane origin along the lane, including
  /// accumulated wraps (monotone). Used by trace generation.
  double cumulative_position_m(const Vehicle& v) const noexcept;

  /// Sequential (non-parallel) update, for the ablation bench only: rules
  /// are applied vehicle-by-vehicle in site order, so a leader's move in
  /// this step already widens the follower's gap. Distorts the fundamental
  /// diagram; the paper's footnote 1 mandates the parallel variant.
  void step_sequential();

  /// Marks a site as a virtual obstacle: vehicles treat it as occupied and
  /// stop before it. Used by intersections (a conflicting crossing) and
  /// traffic lights. Throws if the cell is outside the lane.
  void block_cell(std::int64_t cell);
  /// Removes a virtual obstacle. No-op if not blocked.
  void unblock_cell(std::int64_t cell);
  bool is_blocked(std::int64_t cell) const noexcept;

 private:
  /// Free sites until the nearest blocked cell ahead of `from_cell`
  /// (circular on closed lanes); lane_length when none.
  std::int64_t gap_to_block(std::int64_t from_cell) const noexcept;
  /// Gap pass: shifted difference + boundary tails + blocked-cell min.
  void compute_gaps();
  /// Fused gap + acceleration/clamp pass: one traversal on unblocked
  /// lanes (simd::gap_clamp), falling back to compute_gaps +
  /// velocity_min_clamp when blocked cells must min into the gaps first.
  void compute_gaps_and_clamp();
  /// Slowdown + motion pass: one draw per moving vehicle in site order
  /// (an exact integer-threshold form of uniform() < p), advancing each
  /// mover's cell in the same traversal.
  void apply_slowdown_and_advance();
  /// Wrap fix after motion: O(1) head rotation on closed lanes,
  /// re-seat + re-sort on open ones.
  void apply_wrap();
  /// Open-boundary re-seat: vehicles past the end restart from the first
  /// free site at the head of the lane (velocity 0), then re-sort.
  void reseat_open_boundary(std::size_t first_wrapped);
  /// Writes a site-ordered AoS snapshot back into the SoA arrays
  /// (head = 0). Used by the reference/sequential paths.
  void commit_site_order(const std::vector<Vehicle>& vehicles);
  void invalidate_views() noexcept {
    aos_valid_ = false;
    id_index_valid_ = false;
  }
  void materialize_aos() const;

  NasParams params_;
  LaneState state_;
  std::vector<std::int64_t> blocked_cells_;  // sorted, unique
  Rng rng_;
  std::int64_t time_step_ = 0;

  // Per-step observer caches, rebuilt lazily after a step invalidates
  // them; reused storage so steady-state stepping never allocates.
  mutable std::vector<Vehicle> aos_;             // site order
  mutable bool aos_valid_ = false;
  mutable std::vector<std::uint32_t> id_index_;  // id -> site index
  mutable bool id_index_valid_ = false;
  mutable std::vector<std::int32_t> occupancy_;

  // kOpenShift re-seat scratch (reused across steps).
  std::vector<std::uint8_t> occupied_;
  std::vector<std::uint32_t> reseat_perm_;
  LaneState reseat_scratch_;
  // Slowdown-pass scratch: site-order indices of the moving vehicles
  // (simd::compress_moving). Sized once at construction.
  std::vector<std::uint32_t> moving_scratch_;
};

}  // namespace cavenet::ca

#endif  // CAVENET_CORE_NAS_LANE_H
