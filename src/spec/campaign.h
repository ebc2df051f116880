// The campaign runner: expands a spec's sweep grid into deterministic,
// checkpointed points and executes them on runner::for_each lanes.
//
// Expansion is the cartesian product of the sweep axes (first axis
// slowest) times `replications`. Each point patches the base scenario
// JSON with its axis values, re-parses (so every point is validated with
// the same diagnostics as the base), and draws its seed from a
// counter-based substream keyed on (cell, replication) — never on
// execution order, so any --jobs value and any resume pattern produce
// identical artifacts.
//
// Checkpointing: every completed point writes one stripped RunManifest
// (embedding the spec fingerprint) as soon as it finishes. A --resume
// run re-expands the spec, keeps every on-disk point manifest whose
// fingerprint matches, and only executes the rest. The campaign CSV is
// always rebuilt from the on-disk manifests in point order, which makes
// "interrupted + resumed" byte-identical to "uninterrupted" by
// construction.
#ifndef CAVENET_SPEC_CAMPAIGN_H
#define CAVENET_SPEC_CAMPAIGN_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "spec/spec.h"

namespace cavenet::runner {
class ProgressStream;
}  // namespace cavenet::runner

namespace cavenet::spec {

/// One expanded sweep point, ready to run.
struct CampaignPoint {
  std::size_t index = 0;        ///< global point id, 0..total-1
  std::size_t cell = 0;         ///< sweep-grid cell (axis combination)
  std::size_t replication = 0;  ///< replication within the cell
  /// Axis assignments of this cell, rendered for manifests/CSV
  /// ("mobility.vehicles" -> "40").
  std::vector<std::pair<std::string, std::string>> axis_values;
  /// Patched, re-validated scenario; config.seed is already the derived
  /// per-point substream seed.
  ScenarioSpec scenario;
};

/// Expands the sweep grid. Throws SpecError when a patched point fails
/// validation (the diagnostic names the point, e.g.
/// "...: $.scenario.mobility.vehicles [point 4]: ...").
std::vector<CampaignPoint> expand_points(const CampaignSpec& spec);

/// Relative path of point `index`'s checkpoint manifest,
/// "<name>.point_0007.manifest.json".
std::string point_manifest_path(const CampaignSpec& spec, std::size_t index);

/// Relative path of point `index`'s telemetry stream,
/// "<name>.point_0007.telemetry.jsonl" (written only when the scenario
/// enables obs.telemetry).
std::string point_telemetry_path(const CampaignSpec& spec, std::size_t index);

/// One point's failure, collected while the rest of the sweep drains.
struct PointFailure {
  std::size_t index = 0;
  std::string error;
};

/// Thrown by run_campaign after every point ran when one or more
/// points failed. The message names every offending point id (so
/// cavenet-run's non-zero exit prints them), and the structured list is
/// available for programmatic callers (the job server marks the job
/// failed per point). Completed points keep their checkpoints, so a
/// --resume re-runs only the failures; the campaign CSV/summary are NOT
/// rebuilt from a partial sweep.
class CampaignError : public SpecError {
 public:
  CampaignError(const std::string& message,
                std::vector<PointFailure> failures);
  const std::vector<PointFailure>& failures() const noexcept {
    return failures_;
  }

 private:
  std::vector<PointFailure> failures_;
};

/// Artifacts one executed point wrote, as paths relative to the output
/// dir: the checkpoint manifest first, then the telemetry stream when
/// the scenario enables obs.telemetry.
struct PointArtifacts {
  std::vector<std::string> files;
  double pdr = 0.0;
  std::uint64_t events_dispatched = 0;
};

/// Runs one expanded point and writes its telemetry stream (when
/// enabled) and then its checkpoint manifest under `output_dir`. This is
/// the single-point body both run_campaign and the cavenet-serve workers
/// execute, so server-run points are byte-identical to cavenet-run's by
/// construction. Throws on simulation or write failure.
PointArtifacts run_campaign_point(const CampaignSpec& spec,
                                  const CampaignPoint& point,
                                  const std::string& output_dir);

/// Rebuilds outputs.csv and the campaign summary manifest from the
/// on-disk point manifests in point order (every point manifest must
/// exist under `output_dir`). Resumed, interrupted, cached, and fresh
/// campaigns all serialize identically because this is the only writer.
void write_campaign_outputs(const CampaignSpec& spec,
                            const std::vector<CampaignPoint>& points,
                            const std::string& output_dir);

struct CampaignOptions {
  int jobs = 1;
  bool resume = false;      ///< trust matching on-disk point manifests
  std::string output_dir;   ///< prefix for every artifact ("" = cwd)
  /// Optional, non-owning lifecycle/heartbeat sink (see runner/progress.h):
  /// the campaign reports point started/resumed/finished events into it.
  runner::ProgressStream* progress = nullptr;
};

struct CampaignOutcome {
  std::size_t points_total = 0;
  std::size_t points_run = 0;
  std::size_t points_resumed = 0;  ///< skipped via matching checkpoints
};

/// Runs (or resumes) the campaign: executes pending points across
/// options.jobs workers, writes one point manifest per point, rebuilds
/// outputs.csv from the manifests, and writes the campaign summary
/// manifest to outputs.manifest. When points fail, the remaining points
/// still run (their checkpoints land, so --resume only re-runs the
/// failures), then a CampaignError naming every failed point id is
/// thrown instead of rebuilding the outputs.
CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignOptions& options);

}  // namespace cavenet::spec

#endif  // CAVENET_SPEC_CAMPAIGN_H
