#include "scenario/scale.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/kernel_profiler.h"
#include "runner/ensemble.h"

namespace cavenet::scenario {

ScaleRunResult run_scale(const ScaleConfig& config) {
  if (config.vehicles < 2) {
    throw std::invalid_argument("scale scenario needs at least 2 vehicles");
  }

  TableIConfig table;
  table.protocol = config.protocol;
  table.vehicles = config.vehicles;
  table.lane_cells = std::max<std::int64_t>(
      static_cast<std::int64_t>(
          std::llround(config.cells_per_vehicle * config.vehicles)),
      config.vehicles);
  table.slowdown_p = config.slowdown_p;
  table.receiver = config.receiver;
  table.sender = config.sender;
  table.packets_per_second = config.packets_per_second;
  table.payload_bytes = config.payload_bytes;
  table.traffic_start_s = config.traffic_start_s;
  table.traffic_stop_s = config.duration_s;
  table.duration_s = config.duration_s;
  table.seed = config.seed;
  table.channel_index = config.channel_index;
  table.obs = config.obs;

  // The sweep's whole point is measuring channel and kernel cost, so
  // stand in local instruments for any the caller did not wire.
  obs::StatsRegistry local_stats;
  obs::KernelProfiler local_profiler;
  if (table.obs.stats == nullptr) table.obs.stats = &local_stats;
  if (table.obs.profiler == nullptr) table.obs.profiler = &local_profiler;

  const auto wall_start = std::chrono::steady_clock::now();
  SenderRunResult flow = run_table1(table);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  ScaleRunResult result;
  result.vehicles = config.vehicles;
  result.protocol = config.protocol;
  result.flow = std::move(flow);
  result.stats = table.obs.stats->snapshot();
  result.transmissions = result.stats.counter("chan.tx");
  result.rx_power_evaluated = result.stats.counter("chan.evaluated");
  result.rx_power_culled = result.stats.counter("chan.culled");
  if (result.rx_power_evaluated > 0) {
    result.cull_factor =
        static_cast<double>(result.rx_power_evaluated +
                            result.rx_power_culled) /
        static_cast<double>(result.rx_power_evaluated);
  }
  result.kernel_wall_ms =
      static_cast<double>(table.obs.profiler->total_wall_ns()) / 1e6;
  result.wall_s = wall_s;
  return result;
}

std::vector<ScaleRunResult> run_scale_sweep(std::span<const ScaleConfig> sweep,
                                            int jobs) {
  bool serial = false;
  for (const ScaleConfig& config : sweep) {
    serial = serial || config.obs.has_serial_sink();
  }
  // Each point snapshots its own registry into the result, so nothing is
  // merged across points (mixing N=30 and N=1000 counters would make the
  // aggregate meaningless).
  return runner::map<ScaleRunResult>(
      sweep.size(), serial ? 1 : jobs,
      [&sweep](runner::ReplicationContext& ctx) {
        return run_scale(sweep[ctx.index]);
      });
}

}  // namespace cavenet::scenario
