// The observability surface a scenario wires into its simulation: four
// optional, non-owning sinks shared by every scenario config (Table-I,
// the scale sweep, future workloads) instead of being re-declared on each
// config struct.
#ifndef CAVENET_SCENARIO_OBS_HOOKS_H
#define CAVENET_SCENARIO_OBS_HOOKS_H

#include "netsim/packet_log.h"
#include "obs/kernel_profiler.h"
#include "obs/stats_registry.h"
#include "obs/trace_sink.h"

namespace cavenet::scenario {

/// All pointers optional and non-owning; the caller keeps the sinks alive
/// for the duration of the run.
struct ObsHooks {
  /// Packet event log: every node's MAC and routing layers record
  /// send/receive/forward/drop events into it, ns-2 style.
  netsim::PacketLog* packet_log = nullptr;
  /// Stats registry every layer of every node publishes counters into
  /// ("mac.*", "phy.*", "chan.*", "rtr.*", "agt.*"); the runner adds
  /// run-level gauges ("sim.events.dispatched", "chan.utilization", ...)
  /// post-run.
  obs::StatsRegistry* stats = nullptr;
  /// Chrome trace writer: receives the packet log's mirror, one instant
  /// event per log record, so it stays empty unless packet_log is set too.
  obs::ChromeTraceWriter* trace_sink = nullptr;
  /// Kernel profiler: per-component dispatch counts and handler wall time.
  obs::KernelProfiler* profiler = nullptr;

  /// True when a single-writer sink is wired. The stats registry merges
  /// deterministically across ensemble workers, but these three do not —
  /// configs wiring any of them must run their ensembles serially.
  bool has_serial_sink() const noexcept {
    return packet_log != nullptr || trace_sink != nullptr ||
           profiler != nullptr;
  }
};

}  // namespace cavenet::scenario

#endif  // CAVENET_SCENARIO_OBS_HOOKS_H
