#include "core/nas_lane.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/lane_simd.h"

namespace cavenet::ca {

NasLane::NasLane(NasParams params, std::int64_t n_vehicles,
                 InitialPlacement placement, Rng rng)
    : params_(params), rng_(std::move(rng)) {
  params_.validate();
  if (n_vehicles < 0 || n_vehicles > params_.lane_length) {
    throw std::invalid_argument("vehicle count must be in [0, lane_length]");
  }
  state_.resize(static_cast<std::size_t>(n_vehicles));
  const std::size_t n = state_.size();

  switch (placement) {
    case InitialPlacement::kRandom: {
      // Sample n distinct sites via partial Fisher-Yates over site indices.
      std::vector<std::int64_t> sites(
          static_cast<std::size_t>(params_.lane_length));
      for (std::size_t i = 0; i < sites.size(); ++i) {
        sites[i] = static_cast<std::int64_t>(i);
      }
      for (std::int64_t i = 0; i < n_vehicles; ++i) {
        const auto j = static_cast<std::size_t>(
            i + static_cast<std::int64_t>(rng_.uniform_int(
                    static_cast<std::uint64_t>(params_.lane_length - i))));
        std::swap(sites[static_cast<std::size_t>(i)], sites[j]);
      }
      sites.resize(n);
      std::sort(sites.begin(), sites.end());
      for (std::size_t i = 0; i < n; ++i) {
        state_.cell[i] = sites[i];
        state_.velocity[i] = static_cast<std::int32_t>(
            rng_.uniform_int(static_cast<std::uint64_t>(params_.v_max) + 1));
      }
      break;
    }
    case InitialPlacement::kEven: {
      for (std::size_t i = 0; i < n; ++i) {
        state_.cell[i] =
            static_cast<std::int64_t>(i) * params_.lane_length / n_vehicles;
        state_.velocity[i] = 0;
      }
      break;
    }
    case InitialPlacement::kJam: {
      for (std::size_t i = 0; i < n; ++i) {
        state_.cell[i] = static_cast<std::int64_t>(i);
        state_.velocity[i] = 0;
      }
      break;
    }
  }
  // Ids follow initial site order so vehicle 0 is the rearmost.
  for (std::size_t i = 0; i < n; ++i) {
    state_.id[i] = static_cast<std::uint32_t>(i);
    state_.wraps[i] = 0;
  }
  moving_scratch_.resize(n);
  // Prime the gap fields so observers see consistent state before step().
  compute_gaps();
}

double NasLane::density() const noexcept {
  return static_cast<double>(state_.size()) /
         static_cast<double>(params_.lane_length);
}

std::span<const Vehicle> NasLane::vehicles() const {
  materialize_aos();
  return {aos_.data(), aos_.size()};
}

void NasLane::materialize_aos() const {
  if (aos_valid_) return;
  const std::size_t n = state_.size();
  aos_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t p = state_.phys(s);
    Vehicle& v = aos_[s];
    v.id = state_.id[p];
    v.cell = state_.cell[p];
    v.velocity = state_.velocity[p];
    v.gap = state_.gap[p];
    v.wraps = state_.wraps[p];
  }
  aos_valid_ = true;
}

const Vehicle& NasLane::vehicle_by_id(std::uint32_t id) const {
  const std::size_t n = state_.size();
  if (id >= n) throw std::out_of_range("no vehicle with that id");
  materialize_aos();
  if (!id_index_valid_) {
    id_index_.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      id_index_[aos_[s].id] = static_cast<std::uint32_t>(s);
    }
    id_index_valid_ = true;
  }
  return aos_[id_index_[id]];
}

double NasLane::average_velocity() const noexcept {
  const std::size_t n = state_.size();
  if (n == 0) return 0.0;
  // Exact: every partial sum of velocities fits a double mantissa, so the
  // integer sum divided once matches the seed's sequential double chain.
  const std::int64_t sum = simd::sum_velocity(state_.velocity.data(), n);
  return static_cast<double>(sum) / static_cast<double>(n);
}

double NasLane::average_velocity_ms() const noexcept {
  return average_velocity() * params_.cell_length_m / params_.dt_s;
}

double NasLane::flow() const noexcept { return density() * average_velocity(); }

const std::vector<std::int32_t>& NasLane::occupancy() const {
  occupancy_.assign(static_cast<std::size_t>(params_.lane_length), -1);
  const std::size_t n = state_.size();
  for (std::size_t p = 0; p < n; ++p) {
    occupancy_[static_cast<std::size_t>(state_.cell[p])] = state_.velocity[p];
  }
  return occupancy_;
}

double NasLane::cumulative_position_m(const Vehicle& v) const noexcept {
  return (static_cast<double>(v.cell) +
          static_cast<double>(v.wraps) *
              static_cast<double>(params_.lane_length)) *
         params_.cell_length_m;
}

void NasLane::block_cell(std::int64_t cell) {
  if (cell < 0 || cell >= params_.lane_length) {
    throw std::out_of_range("blocked cell outside lane");
  }
  const auto it =
      std::lower_bound(blocked_cells_.begin(), blocked_cells_.end(), cell);
  if (it == blocked_cells_.end() || *it != cell) {
    blocked_cells_.insert(it, cell);
  }
}

void NasLane::unblock_cell(std::int64_t cell) {
  const auto it =
      std::lower_bound(blocked_cells_.begin(), blocked_cells_.end(), cell);
  if (it != blocked_cells_.end() && *it == cell) blocked_cells_.erase(it);
}

bool NasLane::is_blocked(std::int64_t cell) const noexcept {
  return std::binary_search(blocked_cells_.begin(), blocked_cells_.end(), cell);
}

std::int64_t NasLane::gap_to_block(std::int64_t from_cell) const noexcept {
  if (blocked_cells_.empty()) return params_.lane_length;
  // Nearest blocked cell strictly ahead of from_cell.
  const auto ahead =
      std::upper_bound(blocked_cells_.begin(), blocked_cells_.end(), from_cell);
  if (ahead != blocked_cells_.end()) return *ahead - from_cell - 1;
  if (params_.boundary == Boundary::kClosed) {
    return blocked_cells_.front() + params_.lane_length - from_cell - 1;
  }
  return params_.lane_length;
}

void NasLane::compute_gaps() {
  const std::size_t n = state_.size();
  if (n == 0) return;
  auto* cell = state_.cell.data();
  auto* gap = state_.gap.data();
  const std::int64_t L = params_.lane_length;
  const bool closed = params_.boundary == Boundary::kClosed;
  if (n == 1) {
    // A lone vehicle never catches anyone.
    gap[0] = closed ? L - 1 : L;
  } else {
    simd::gap_shifted_diff(cell, gap, n);
    // Two patches finish the ring. Physical adjacency equals site
    // adjacency except where the arrays wrap: physical n-1 -> 0 is
    // site-adjacent when head != 0 (the diff pass stops at n-1), and
    // physical head-1 holds the site-order LAST vehicle, whose gap closes
    // the ring (the raw diff there came out short by exactly L).
    const std::size_t head = state_.head;
    if (head == 0) {
      gap[n - 1] = closed ? cell[0] + L - cell[n - 1] - 1 : L;
    } else {
      gap[n - 1] = cell[0] - cell[n - 1] - 1;
      gap[head - 1] = closed ? cell[head] + L - cell[head - 1] - 1 : L;
    }
  }
  if (!blocked_cells_.empty()) {
    for (std::size_t p = 0; p < n; ++p) {
      const std::int64_t b = gap_to_block(cell[p]);
      if (b < gap[p]) gap[p] = b;
    }
  }
}

void NasLane::compute_gaps_and_clamp() {
  const std::size_t n = state_.size();
  if (n == 0) return;
  const std::int32_t v_max = params_.v_max;
  auto* gap = state_.gap.data();
  auto* vel = state_.velocity.data();
  if (n == 1 || !blocked_cells_.empty()) {
    // Blocked cells must min into the gaps before the clamp sees them,
    // so the passes cannot fuse; lone vehicles have no interior at all.
    compute_gaps();
    simd::velocity_min_clamp(vel, gap, v_max, n);
    return;
  }
  auto* cell = state_.cell.data();
  const std::int64_t L = params_.lane_length;
  const bool closed = params_.boundary == Boundary::kClosed;
  const std::size_t head = state_.head;
  // The fused pass works off raw shifted diffs, which are wrong at the
  // two ring-patch sites (physical n-1 when head != 0, and the
  // site-order last vehicle at head-1 resp. n-1). Stash their pre-clamp
  // velocities, run the bulk pass, then patch gap and redo the clamp
  // scalar at those sites.
  const std::size_t seam = head == 0 ? n - 1 : head - 1;
  const std::int32_t v_seam = vel[seam];
  const std::int32_t v_last = vel[n - 1];
  simd::gap_clamp(cell, gap, vel, v_max, n);
  const auto clamp_site = [&](std::size_t i, std::int32_t v) {
    const std::int32_t accel = v + 1 < v_max ? v + 1 : v_max;
    vel[i] = accel < gap[i] ? accel : static_cast<std::int32_t>(gap[i]);
  };
  if (head == 0) {
    gap[n - 1] = closed ? cell[0] + L - cell[n - 1] - 1 : L;
  } else {
    gap[n - 1] = cell[0] - cell[n - 1] - 1;
    gap[seam] = closed ? cell[head] + L - cell[seam] - 1 : L;
    clamp_site(seam, v_seam);
  }
  clamp_site(n - 1, v_last);
}

void NasLane::apply_slowdown_and_advance() {
  const std::size_t n = state_.size();
  auto* vel = state_.velocity.data();
  auto* cell = state_.cell.data();
  const double p = params_.slowdown_p;
  if (p <= 0.0) {
    // bernoulli(p <= 0) draws nothing; everyone advances as clamped.
    simd::advance_cells(cell, vel, n);
    return;
  }
  if (p >= 1.0) {
    // bernoulli(p >= 1) is true without consuming a draw.
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t v = vel[i] - static_cast<std::int32_t>(vel[i] > 0);
      vel[i] = v;
      cell[i] += v;
    }
    return;
  }
  // Draw-order contract: one draw per vehicle with post-clamp velocity
  // > 0, in SITE order — physically the run [head, n) then [0, head).
  // This is the only order-sensitive pass. Left-packing the movers'
  // indices first (vectorized) makes every loop iteration below consume
  // a draw unconditionally: a jammed lane's randomly stopped vehicles
  // would otherwise stall the serial RNG dependency chain with a branch
  // misprediction per jam edge. `uniform() < p` is evaluated as an
  // exact integer compare: with m = draw >> 11, uniform() is m * 2^-53
  // with both factors exact, so uniform() < p iff m < ceil(p * 2^53)
  // (scaling a double by 2^53 is exact too) — no int->double convert on
  // the chain. Movers advance their cell in the same traversal; stopped
  // vehicles need no write at all.
  auto* moving = moving_scratch_.data();
  std::size_t count = simd::compress_moving(vel, state_.head, n, moving);
  count += simd::compress_moving(vel, 0, state_.head, moving + count);
  const std::uint64_t threshold =
      static_cast<std::uint64_t>(std::ceil(p * 9007199254740992.0));
  // Draw through a local generator: the member's state would have to be
  // re-loaded around every store the compiler cannot prove disjoint.
  Rng rng = std::move(rng_);
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t i = moving[j];
    const std::int32_t v =
        vel[i] - static_cast<std::int32_t>((rng.next_u64() >> 11) < threshold);
    vel[i] = v;
    cell[i] += v;
  }
  rng_ = std::move(rng);
}

void NasLane::apply_wrap() {
  const std::size_t n = state_.size();
  if (n == 0) return;
  auto* cell = state_.cell.data();
  const std::int64_t L = params_.lane_length;

  if (params_.boundary == Boundary::kClosed) {
    // Wrapped vehicles are the k largest new cells — a site-order suffix
    // (collision-freedom keeps site order strictly increasing), which is
    // physically the k slots walking backwards from head. Fix them up and
    // rotate the head in O(k) where the seed paid an O(N) std::rotate.
    std::size_t k = 0;
    while (k < n) {
      const std::size_t p = (state_.head + n - 1 - k) % n;
      if (cell[p] < L) break;
      cell[p] -= L;
      ++state_.wraps[p];
      ++k;
    }
    if (k > 0) state_.head = (state_.head + n - k) % n;
    return;
  }

  // kOpenShift: head is pinned to 0 (re-seating re-sorts), so site order
  // is physical order and vehicles past the end are the physical suffix.
  std::size_t first = n;
  while (first > 0 && cell[first - 1] >= L) --first;
  if (first == n) return;
  reseat_open_boundary(first);
}

void NasLane::reseat_open_boundary(std::size_t first_wrapped) {
  // kOpenShift (the first CAVENET version): the lead vehicle sees open
  // road, so it may drive past the lane end; it is then shifted back to
  // the first free site from the head of the lane and restarts from
  // standstill (this forced re-seating is the "delay" the paper
  // attributes to the unimproved version).
  const std::size_t n = state_.size();
  auto* cell = state_.cell.data();
  occupied_.assign(static_cast<std::size_t>(params_.lane_length), 0);
  for (std::size_t i = 0; i < first_wrapped; ++i) {
    occupied_[static_cast<std::size_t>(cell[i])] = 1;
  }
  std::int64_t cursor = 0;
  for (std::size_t i = first_wrapped; i < n; ++i) {
    while (cursor < params_.lane_length &&
           occupied_[static_cast<std::size_t>(cursor)]) {
      ++cursor;
    }
    cell[i] = cursor;
    occupied_[static_cast<std::size_t>(cursor)] = 1;
    state_.velocity[i] = 0;  // re-seated vehicles restart from standstill
    ++state_.wraps[i];
  }
  // Restore site order: sort a permutation of slots by cell (cells are
  // distinct, so the order is unique), gather into the scratch arrays and
  // swap them in. All storage is reused across steps.
  reseat_perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    reseat_perm_[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(
      reseat_perm_.begin(), reseat_perm_.end(),
      [cell](std::uint32_t a, std::uint32_t b) { return cell[a] < cell[b]; });
  reseat_scratch_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const std::uint32_t p = reseat_perm_[s];
    reseat_scratch_.cell[s] = state_.cell[p];
    reseat_scratch_.velocity[s] = state_.velocity[p];
    reseat_scratch_.gap[s] = state_.gap[p];
    reseat_scratch_.wraps[s] = state_.wraps[p];
    reseat_scratch_.id[s] = state_.id[p];
  }
  state_.cell.swap(reseat_scratch_.cell);
  state_.velocity.swap(reseat_scratch_.velocity);
  state_.gap.swap(reseat_scratch_.gap);
  state_.wraps.swap(reseat_scratch_.wraps);
  state_.id.swap(reseat_scratch_.id);
  state_.head = 0;
}

void NasLane::step() {
  // Parallel update: compute every new velocity from the *current*
  // configuration before anyone moves (paper footnote 1), as fused
  // passes over the SoA arrays. Only the slowdown pass is
  // order-sensitive.
  compute_gaps_and_clamp();
  apply_slowdown_and_advance();
  apply_wrap();
  ++time_step_;
  invalidate_views();
}

void NasLane::step_reference() {
  // The seed's scalar kernel, verbatim, run on a materialized AoS copy
  // and committed back. Kept as the oracle for the SoA equivalence
  // harness — do not "optimize" this function.
  materialize_aos();
  std::vector<Vehicle> vehicles = aos_;
  const std::size_t n = vehicles.size();
  const std::int64_t L = params_.lane_length;

  const auto gap_ahead = [&](std::size_t idx) -> std::int64_t {
    const Vehicle& me = vehicles[idx];
    std::int64_t gap;
    if (n == 1) {
      gap = params_.boundary == Boundary::kClosed ? L - 1 : L;
    } else if (idx + 1 < n) {
      gap = vehicles[idx + 1].cell - me.cell - 1;
    } else if (params_.boundary == Boundary::kClosed) {
      gap = vehicles[0].cell + L - me.cell - 1;
    } else {
      gap = L;
    }
    return std::min(gap, gap_to_block(me.cell));
  };

  for (std::size_t i = 0; i < n; ++i) vehicles[i].gap = gap_ahead(i);
  for (auto& v : vehicles) {
    v.velocity = std::min(v.velocity + 1, params_.v_max);  // rule 1
    v.velocity = static_cast<std::int32_t>(
        std::min<std::int64_t>(v.velocity, v.gap));  // rule 2
    if (params_.slowdown_p > 0.0 && v.velocity > 0) {
      if (rng_.bernoulli(params_.slowdown_p)) {
        --v.velocity;  // rule 2'
      }
    }
  }

  std::uint64_t wrapped = 0;
  if (params_.boundary == Boundary::kClosed) {
    for (auto& v : vehicles) {
      v.cell += v.velocity;
      if (v.cell >= L) {
        v.cell -= L;
        ++v.wraps;
        ++wrapped;
      }
    }
    if (wrapped > 0) {
      std::rotate(vehicles.begin(),
                  std::min_element(vehicles.begin(), vehicles.end(),
                                   [](const Vehicle& a, const Vehicle& b) {
                                     return a.cell < b.cell;
                                   }),
                  vehicles.end());
    }
  } else {
    std::vector<bool> occupied(static_cast<std::size_t>(L), false);
    std::vector<Vehicle*> shifted;
    for (auto& v : vehicles) {
      v.cell += v.velocity;
      if (v.cell >= L) {
        ++v.wraps;
        ++wrapped;
        shifted.push_back(&v);
      } else {
        occupied[static_cast<std::size_t>(v.cell)] = true;
      }
    }
    std::int64_t cursor = 0;
    for (Vehicle* v : shifted) {
      while (cursor < L && occupied[static_cast<std::size_t>(cursor)]) {
        ++cursor;
      }
      v->cell = cursor;
      occupied[static_cast<std::size_t>(cursor)] = true;
      v->velocity = 0;
    }
    if (!shifted.empty()) {
      std::sort(
          vehicles.begin(), vehicles.end(),
          [](const Vehicle& a, const Vehicle& b) { return a.cell < b.cell; });
    }
  }

  commit_site_order(vehicles);
  ++time_step_;
  invalidate_views();
}

void NasLane::step_sequential() {
  // Leaders update first (reverse site order), so a follower's gap already
  // reflects its leader's move within the same step — the in-step reaction
  // the parallel rule forbids.
  materialize_aos();
  std::vector<Vehicle> vehicles = aos_;
  const std::size_t n = vehicles.size();
  const std::int64_t L = params_.lane_length;
  const bool closed = params_.boundary == Boundary::kClosed;
  std::vector<std::size_t> overflowed;  // kOpenShift: drove past the end
  for (std::size_t i = n; i-- > 0;) {
    Vehicle& v = vehicles[i];
    std::int64_t gap;
    if (i + 1 < n) {
      gap = vehicles[i + 1].cell - v.cell - 1;
      // Leader already wrapped the ring this step. Open-lane leaders past
      // the end keep their unwrapped cell until re-seating below, so
      // their followers always see a true (non-negative) gap.
      if (gap < 0) gap += L;
    } else if (n == 1) {
      gap = closed ? L - 1 : L;
    } else if (closed) {
      gap = vehicles[0].cell + L - v.cell - 1;
    } else {
      gap = L;
    }
    gap = std::min(gap, gap_to_block(v.cell));
    v.gap = gap;
    v.velocity = std::min(v.velocity + 1, params_.v_max);
    v.velocity =
        static_cast<std::int32_t>(std::min<std::int64_t>(v.velocity, v.gap));
    if (params_.slowdown_p > 0.0 && v.velocity > 0 &&
        rng_.bernoulli(params_.slowdown_p)) {
      --v.velocity;
    }
    v.cell += v.velocity;
    if (v.cell >= L) {
      if (closed) {
        v.cell -= L;
        ++v.wraps;
      } else {
        // kOpenShift: re-seat after the sweep (same semantics as the
        // parallel step) — wrapping in place here would teleport the
        // vehicle mid-lane, possibly onto an occupied site.
        ++v.wraps;
        overflowed.push_back(i);
      }
    }
  }
  if (!overflowed.empty()) {
    std::vector<bool> occupied(static_cast<std::size_t>(L), false);
    for (std::size_t i = 0; i < n; ++i) {
      if (vehicles[i].cell < L) {
        occupied[static_cast<std::size_t>(vehicles[i].cell)] = true;
      }
    }
    std::int64_t cursor = 0;
    // overflowed was collected leaders-first; re-seat in site order.
    for (auto it = overflowed.rbegin(); it != overflowed.rend(); ++it) {
      Vehicle& v = vehicles[*it];
      while (cursor < L && occupied[static_cast<std::size_t>(cursor)]) {
        ++cursor;
      }
      v.cell = cursor;
      occupied[static_cast<std::size_t>(cursor)] = true;
      v.velocity = 0;
    }
  }
  std::sort(vehicles.begin(), vehicles.end(),
            [](const Vehicle& a, const Vehicle& b) { return a.cell < b.cell; });
  commit_site_order(vehicles);
  ++time_step_;
  invalidate_views();
}

void NasLane::commit_site_order(const std::vector<Vehicle>& vehicles) {
  const std::size_t n = vehicles.size();
  for (std::size_t s = 0; s < n; ++s) {
    const Vehicle& v = vehicles[s];
    state_.cell[s] = v.cell;
    state_.velocity[s] = v.velocity;
    state_.gap[s] = v.gap;
    state_.wraps[s] = v.wraps;
    state_.id[s] = v.id;
  }
  state_.head = 0;
}

void NasLane::run(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) step();
}

}  // namespace cavenet::ca
