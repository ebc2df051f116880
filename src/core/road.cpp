#include "core/road.h"

#include <cmath>
#include <stdexcept>

namespace cavenet::ca {

std::uint32_t Road::add_lane(NasLane lane,
                             std::unique_ptr<LaneGeometry> geometry) {
  if (!geometry) throw std::invalid_argument("geometry must not be null");
  const double expected = lane.params().lane_length_m();
  if (std::abs(geometry->length_m() - expected) > 1e-6) {
    throw std::invalid_argument("geometry length does not match lane length");
  }
  LaneEntry entry{std::move(lane), std::move(geometry), 0, {}};
  entry.first_node_id = 0;
  for (const auto& existing : lanes_) {
    entry.first_node_id +=
        static_cast<std::uint32_t>(existing.sim.vehicle_count());
  }
  entry.last_wraps.assign(
      static_cast<std::size_t>(entry.sim.vehicle_count()), 0);
  const LaneState& state = entry.sim.state();
  for (std::size_t p = 0; p < state.size(); ++p) {
    entry.last_wraps[state.id[p]] = state.wraps[p];
  }
  lanes_.push_back(std::move(entry));
  return static_cast<std::uint32_t>(lanes_.size() - 1);
}

std::size_t Road::vehicle_count() const noexcept {
  std::size_t n = 0;
  for (const auto& entry : lanes_) {
    n += static_cast<std::size_t>(entry.sim.vehicle_count());
  }
  return n;
}

void Road::step() {
  for (LaneEntry& entry : lanes_) {
    const LaneState& state = entry.sim.state();
    for (std::size_t p = 0; p < state.size(); ++p) {
      entry.last_wraps[state.id[p]] = state.wraps[p];
    }
    entry.sim.step();
  }
  ++time_step_;
}

std::vector<VehicleState> Road::states() const {
  std::vector<VehicleState> out(vehicle_count());
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    const auto& entry = lanes_[k];
    const auto& params = entry.sim.params();
    // Straight off the SoA arrays — no per-vehicle AoS materialization.
    const LaneState& state = entry.sim.state();
    for (std::size_t p = 0; p < state.size(); ++p) {
      VehicleState s;
      s.lane = static_cast<std::uint32_t>(k);
      s.vehicle_id = state.id[p];
      s.node_id = entry.first_node_id + state.id[p];
      const double arc =
          static_cast<double>(state.cell[p]) * params.cell_length_m;
      s.position = entry.geometry->position(arc);
      const double speed_ms = static_cast<double>(state.velocity[p]) *
                              params.cell_length_m / params.dt_s;
      s.velocity = entry.geometry->heading(arc) * speed_ms;
      s.wrapped_this_step = state.wraps[p] != entry.last_wraps[state.id[p]];
      out[s.node_id] = s;
    }
  }
  return out;
}

}  // namespace cavenet::ca
