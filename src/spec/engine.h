// Spec execution entry point: runs a loaded spec by dispatching on its
// kind (cavenet-run's path).
#ifndef CAVENET_SPEC_ENGINE_H
#define CAVENET_SPEC_ENGINE_H

#include <string>

#include "spec/spec.h"

namespace cavenet::spec {

struct RunOptions {
  int jobs = 1;             ///< ensemble workers; <= 0 = hardware threads
  /// Has no effect: a run is single-threaded and cores go to `jobs`
  /// (docs/SCALING.md "Threading"). Kept so existing callers that set it
  /// still compile.
  int threads = 0;
  bool resume = false;      ///< campaigns: trust matching checkpoints
  std::string output_dir;   ///< artifact prefix ("" = cwd)
  /// Campaigns: stream per-point lifecycle events and heartbeats to
  /// "<name>.progress.jsonl" and (live) to stdout. See runner/progress.h.
  bool progress = false;
  /// Wall-clock heartbeat/stall-check period for --progress, in seconds.
  double progress_period_s = 5.0;
};

/// Dispatches on spec.kind. Returns a process exit code (0 on success).
int run_spec(const CampaignSpec& spec, const RunOptions& options);

/// load_campaign_file + run_spec.
int run_spec_file(const std::string& path, const RunOptions& options);

}  // namespace cavenet::spec

#endif  // CAVENET_SPEC_ENGINE_H
