// spec -> simulation wiring: materialize the mobility a ScenarioSpec
// describes and run its protocol stack. NaS mobility without a transform
// is scenario::make_table1_trace, and every point runs through
// scenario::run_with_trace — the composition run_table1 and the
// hardcoded benches use — so a spec that mirrors a bench's defaults
// reproduces that bench byte-for-byte.
#ifndef CAVENET_SPEC_BUILD_H
#define CAVENET_SPEC_BUILD_H

#include "core/lane_transform.h"
#include "obs/stats_registry.h"
#include "scenario/table1.h"
#include "spec/spec.h"
#include "trace/mobility_trace.h"

namespace cavenet::spec {

/// The affine matrix of a TransformSpec: translate * rotate * mirror
/// (mirror applied first).
ca::LaneTransform to_lane_transform(const TransformSpec& transform);

/// Applies a rigid transform in place: initial positions and event
/// targets move; speeds are preserved (the spec only exposes rigid
/// transforms, which never change segment lengths).
void transform_trace(trace::MobilityTrace& mobility,
                     const ca::LaneTransform& transform);

/// Builds the mobility trace `spec` describes. NaS mobility reuses
/// scenario::make_table1_trace (plus the optional transform); grid
/// mobility steps a signalized ca::GridRoad seeded with the scenario
/// seed.
trace::MobilityTrace build_trace(const ScenarioSpec& spec);

/// Runs the scenario's single flow (config.sender -> config.receiver)
/// once, publishing into `stats` when non-null. This is one campaign
/// point.
scenario::SenderRunResult run_point(const ScenarioSpec& spec,
                                    obs::StatsRegistry* stats);

}  // namespace cavenet::spec

#endif  // CAVENET_SPEC_BUILD_H
