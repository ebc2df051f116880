// TelemetryRecorder: in-run time series of StatsRegistry snapshots.
//
// End-of-run manifests answer "what happened"; telemetry answers "when".
// The recorder self-schedules on the simulator at a fixed sim-time period
// and appends one JSONL line per sample:
//
//   {"seq":0,"t_s":1.5,"stats":{"counters":{...},"gauges":{...},
//    "histograms":{},"quantiles":{...}}}
//
// Samples are keyed on *simulation* time and contain only registry state,
// so the stream is a pure function of (build, seed, params): running the
// same scenario at --jobs 1 and --jobs 4 yields byte-identical JSONL.
// Delta mode shrinks lines by emitting only entries that changed since
// the previous sample (values stay absolute); the first sample is always
// full, so a delta stream replays into the same final state.
#ifndef CAVENET_OBS_TELEMETRY_H
#define CAVENET_OBS_TELEMETRY_H

#include <cstdint>
#include <string>

#include "obs/stats_registry.h"
#include "util/sim_time.h"

namespace cavenet::obs {

struct TelemetryOptions {
  /// Sampling period in simulation seconds; <= 0 disables telemetry.
  double period_s = 0.0;
  /// Emit only changed entries after the first (always full) sample.
  bool delta = false;

  bool enabled() const noexcept { return period_s > 0.0; }
};

class TelemetryRecorder {
 public:
  TelemetryRecorder(const StatsRegistry& registry, TelemetryOptions options)
      : registry_(&registry), options_(options) {}

  TelemetryRecorder(const TelemetryRecorder&) = delete;
  TelemetryRecorder& operator=(const TelemetryRecorder&) = delete;

  /// Snapshots the registry now and appends one JSONL line stamped with
  /// simulation time `t_s`. Normally driven by attach(); callable
  /// directly for tests and for a final end-of-run sample.
  void sample(double t_s);

  /// Lines recorded so far (also the next line's "seq").
  std::uint64_t samples() const noexcept { return seq_; }
  /// The JSONL stream accumulated so far (newline-terminated lines).
  const std::string& jsonl() const noexcept { return out_; }
  const TelemetryOptions& options() const noexcept { return options_; }

  /// Writes the stream to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const;

  /// Starts periodic sampling on `sim` (templated so obs does not depend
  /// on netsim; any type with schedule(SimTime, label, fn), now() and
  /// queue_depth() works). Self-stop rule: the recorder reschedules only
  /// while other events remain queued, so telemetry never keeps a drained
  /// simulation alive on its own. The recorder must outlive the
  /// simulation run.
  template <typename SimulatorT>
  void attach(SimulatorT& sim) {
    if (!options_.enabled()) return;
    schedule_next(sim);
  }

 private:
  template <typename SimulatorT>
  void schedule_next(SimulatorT& sim) {
    sim.schedule(SimTime::from_seconds(options_.period_s), "obs.telemetry",
                 [this, &sim] {
                   sample(sim.now().sec());
                   if (sim.queue_depth() > 0) schedule_next(sim);
                 });
  }

  const StatsRegistry* registry_;
  TelemetryOptions options_;
  StatsSnapshot last_;
  std::uint64_t seq_ = 0;
  std::string out_;
};

}  // namespace cavenet::obs

#endif  // CAVENET_OBS_TELEMETRY_H
