#include "spec/build.h"

#include <cmath>
#include <utility>

#include "core/grid_road.h"
#include "trace/trace_generator.h"

namespace cavenet::spec {

ca::LaneTransform to_lane_transform(const TransformSpec& transform) {
  ca::LaneTransform matrix;
  if (transform.mirror_x) matrix = ca::LaneTransform::mirror_x() * matrix;
  if (transform.rotate_deg != 0.0) {
    constexpr double kPi = 3.14159265358979323846;
    matrix =
        ca::LaneTransform::rotation(transform.rotate_deg * kPi / 180.0) *
        matrix;
  }
  if (transform.translate_x != 0.0 || transform.translate_y != 0.0) {
    matrix = ca::LaneTransform::translation(transform.translate_x,
                                            transform.translate_y) *
             matrix;
  }
  return matrix;
}

void transform_trace(trace::MobilityTrace& mobility,
                     const ca::LaneTransform& transform) {
  for (Vec2& p : mobility.initial_positions) p = transform.apply(p);
  for (trace::TraceEvent& event : mobility.events) {
    event.target = transform.apply(event.target);
  }
}

trace::MobilityTrace build_trace(const ScenarioSpec& spec) {
  if (spec.mobility_model == MobilityModel::kGrid) {
    ca::GridRoadConfig grid_config = spec.grid;
    grid_config.seed = spec.config.seed;
    ca::GridRoad grid(grid_config);
    trace::TraceGeneratorOptions options;
    options.steps = spec.grid_trace_steps;
    options.pre_step = [&grid](ca::Road& road) { grid.apply_signals(road); };
    return trace::generate_trace(grid.road(), options);
  }
  trace::MobilityTrace mobility = scenario::make_table1_trace(spec.config);
  if (spec.transform) {
    transform_trace(mobility, to_lane_transform(*spec.transform));
  }
  return mobility;
}

scenario::SenderRunResult run_point(const ScenarioSpec& spec,
                                    obs::StatsRegistry* stats) {
  scenario::TableIConfig config = spec.config;
  config.obs.stats = spec.collect_stats ? stats : nullptr;
  return scenario::run_with_trace(build_trace(spec), config, {config.sender})
      .front();
}

}  // namespace cavenet::spec
