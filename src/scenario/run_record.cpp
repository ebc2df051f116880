#include "scenario/run_record.h"

#include <cstdint>

namespace cavenet::scenario {

obs::RunManifest make_run_manifest(std::string name,
                                   const TableIConfig& config,
                                   const std::vector<SenderRunResult>& results,
                                   double wall_duration_s) {
  obs::RunManifest m;
  m.name = std::move(name);
  m.seed = config.seed;
  m.sim_duration_s = config.duration_s;
  m.wall_duration_s = wall_duration_s;

  m.set_param("protocol", to_string(config.protocol));
  m.set_param("vehicles", static_cast<std::int64_t>(config.vehicles));
  m.set_param("lane_cells", static_cast<std::int64_t>(config.lane_cells));
  m.set_param("slowdown_p", config.slowdown_p);
  m.set_param("circular_layout", config.circular_layout);
  m.set_param("receiver", static_cast<std::uint64_t>(config.receiver));
  m.set_param("packets_per_second", config.packets_per_second);
  m.set_param("payload_bytes",
              static_cast<std::uint64_t>(config.payload_bytes));
  m.set_param("traffic_start_s", config.traffic_start_s);
  m.set_param("traffic_stop_s", config.traffic_stop_s);
  m.set_param("mac_rate_bps", config.mac_rate_bps);
  m.set_param("use_rts_cts", config.use_rts_cts);

  double tx = 0.0, rx = 0.0;
  for (const SenderRunResult& r : results) {
    tx += static_cast<double>(r.tx_packets);
    rx += static_cast<double>(r.rx_packets);
  }
  m.set_metric("tx_packets", tx);
  m.set_metric("rx_packets", rx);
  m.set_metric("pdr", tx > 0.0 ? rx / tx : 0.0);
  if (!results.empty()) {
    const SenderRunResult& first = results.front();
    m.set_metric("mean_delay_s", first.mean_delay_s);
    m.set_metric("mean_hop_count", first.mean_hop_count);
    m.set_metric("control_packets", static_cast<double>(first.control_packets));
    m.set_metric("control_bytes", static_cast<double>(first.control_bytes));
    m.set_metric("mac_collisions", static_cast<double>(first.mac_collisions));
    m.set_metric("mac_retries", static_cast<double>(first.mac_retries));
    m.set_metric("channel_utilization", first.channel_utilization);
    m.events_dispatched = first.events_dispatched;
    if (wall_duration_s > 0.0) {
      m.events_per_wall_second =
          static_cast<double>(first.events_dispatched) / wall_duration_s;
    }
  }

  if (config.obs.stats != nullptr) m.stats = config.obs.stats->snapshot();
  return m;
}

}  // namespace cavenet::scenario
