#include "spec/campaign.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <mutex>

#include <fstream>

#include "obs/run_manifest.h"
#include "obs/stats_registry.h"
#include "runner/ensemble.h"
#include "runner/progress.h"
#include "scenario/run_record.h"
#include "spec/build.h"
#include "spec/figures.h"
#include "util/rng.h"
#include "util/table_writer.h"

namespace cavenet::spec {

namespace {

/// Seed material for the campaign's master stream ("camp").
constexpr std::uint64_t kCampaignStream = 0x63616d70;

std::string render_value(const obs::JsonValue& value) {
  return value.is_string() ? value.string : obs::to_json(value);
}

/// Sets `dotted` (e.g. "mobility.vehicles") inside `object`, creating
/// intermediate objects as needed.
void patch_json(obs::JsonValue& object, const std::string& dotted,
                const obs::JsonValue& value, const std::string& diag) {
  obs::JsonValue* node = &object;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = dotted.find('.', start);
    const std::string key = dotted.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    if (key.empty()) {
      throw SpecError(diag + ": malformed sweep param \"" + dotted + "\"");
    }
    obs::JsonValue* child = nullptr;
    for (auto& [name, member] : node->object) {
      if (name == key) {
        child = &member;
        break;
      }
    }
    if (child == nullptr) {
      node->object.emplace_back(key, obs::JsonValue{});
      child = &node->object.back().second;
      child->kind = obs::JsonValue::Kind::kObject;
    }
    if (dot == std::string::npos) {
      *child = value;
      return;
    }
    if (!child->is_object()) {
      throw SpecError(diag + ": sweep param \"" + dotted + "\" descends into " +
                      "a non-object at \"" + key + "\"");
    }
    node = child;
    start = dot + 1;
  }
}

}  // namespace

std::vector<CampaignPoint> expand_points(const CampaignSpec& spec) {
  if (spec.kind != SpecKind::kCampaign) {
    throw SpecError(spec.source + ": kind \"" +
                    std::string(to_string(spec.kind)) +
                    "\" has no sweep points to expand");
  }
  std::size_t cells = 1;
  for (const SweepAxis& axis : spec.sweep.axes) cells *= axis.values.size();
  const auto reps = static_cast<std::size_t>(spec.sweep.replications);

  const Rng master(spec.scenario.config.seed, kCampaignStream);
  std::vector<CampaignPoint> points;
  points.reserve(cells * reps);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    // Decode the cell id into per-axis indices, first axis slowest.
    std::vector<std::size_t> axis_index(spec.sweep.axes.size(), 0);
    std::size_t remainder = cell;
    for (std::size_t a = spec.sweep.axes.size(); a-- > 0;) {
      const std::size_t size = spec.sweep.axes[a].values.size();
      axis_index[a] = remainder % size;
      remainder /= size;
    }

    obs::JsonValue patched = spec.scenario_json;
    std::vector<std::pair<std::string, std::string>> axis_values;
    for (std::size_t a = 0; a < spec.sweep.axes.size(); ++a) {
      const SweepAxis& axis = spec.sweep.axes[a];
      const obs::JsonValue& value = axis.values[axis_index[a]];
      patch_json(patched, axis.param, value,
                 spec.source + ": $.sweep.axes[" + std::to_string(a) + "]");
      axis_values.emplace_back(axis.param, render_value(value));
    }

    const ScenarioSpec cell_scenario = parse_scenario(
        patched,
        spec.source + ": $.scenario[cell " + std::to_string(cell) + "]");
    if (cell_scenario.first_sender != cell_scenario.last_sender) {
      throw SpecError(spec.source + ": $.scenario[cell " +
                      std::to_string(cell) +
                      "]: campaign points run one flow; a sweep must not "
                      "introduce a sender range");
    }

    const Rng cell_rng = master.substream(cell);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      CampaignPoint point;
      point.index = cell * reps + rep;
      point.cell = cell;
      point.replication = rep;
      point.axis_values = axis_values;
      point.scenario = cell_scenario;
      // Counter-based: depends only on (base seed, cell, rep), never on
      // execution order — resumed and fresh runs agree byte-for-byte.
      point.scenario.config.seed = cell_rng.substream(rep).next_u64();
      points.push_back(std::move(point));
    }
  }
  return points;
}

std::string point_manifest_path(const CampaignSpec& spec, std::size_t index) {
  char suffix[40];
  std::snprintf(suffix, sizeof suffix, ".point_%04zu.manifest.json", index);
  return spec.name + suffix;
}

std::string point_telemetry_path(const CampaignSpec& spec, std::size_t index) {
  char suffix[40];
  std::snprintf(suffix, sizeof suffix, ".point_%04zu.telemetry.jsonl", index);
  return spec.name + suffix;
}

CampaignError::CampaignError(const std::string& message,
                             std::vector<PointFailure> failures)
    : SpecError(message), failures_(std::move(failures)) {}

PointArtifacts run_campaign_point(const CampaignSpec& spec,
                                  const CampaignPoint& point,
                                  const std::string& output_dir) {
  const std::string point_name =
      spec.name + "[" + std::to_string(point.index) + "]";
  obs::StatsRegistry stats;
  const scenario::SenderRunResult result = run_point(point.scenario, &stats);

  scenario::TableIConfig manifest_config = point.scenario.config;
  manifest_config.obs.stats = point.scenario.collect_stats ? &stats : nullptr;
  obs::RunManifest manifest =
      make_run_manifest(point_name, manifest_config, {result});
  manifest.set_param("spec_name", spec.name);
  manifest.set_param("spec_fingerprint", spec.fingerprint);
  manifest.set_param("point_index", static_cast<std::int64_t>(point.index));
  manifest.set_param("cell", static_cast<std::int64_t>(point.cell));
  manifest.set_param("replication",
                     static_cast<std::int64_t>(point.replication));
  for (const auto& [param, value] : point.axis_values) {
    manifest.set_param("sweep." + param, value);
  }
  manifest.strip_volatile();
  PointArtifacts artifacts;
  artifacts.pdr = result.pdr;
  artifacts.events_dispatched = result.events_dispatched;
  const std::string manifest_name = point_manifest_path(spec, point.index);
  artifacts.files.push_back(manifest_name);
  if (!result.telemetry_jsonl.empty()) {
    const std::string telemetry_name = point_telemetry_path(spec, point.index);
    const std::string telemetry_path =
        join_output_path(output_dir, telemetry_name);
    std::ofstream out(telemetry_path, std::ios::binary);
    out << result.telemetry_jsonl;
    if (!out.flush()) {
      throw std::runtime_error("cannot write point telemetry " +
                               telemetry_path);
    }
    artifacts.files.push_back(telemetry_name);
  }
  // The manifest is the checkpoint --resume trusts, so it is written
  // last: a point whose other artifacts did not all land has none and
  // re-runs. Checkpoints land in any point order; the CSV is always
  // rebuilt from the manifests in point order.
  const std::string path = join_output_path(output_dir, manifest_name);
  if (!manifest.write_file(path)) {
    throw std::runtime_error("cannot write point manifest " + path);
  }
  return artifacts;
}

// Same GCC 12 -Wmaybe-uninitialized false positive as figures.cpp: the
// std::variant<std::string,...> TableCell rows below never have the
// string alternative active at the flagged sites.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

void write_campaign_outputs(const CampaignSpec& spec,
                            const std::vector<CampaignPoint>& points,
                            const std::string& output_dir) {
  // The CSV is always rebuilt from the on-disk manifests in point order,
  // so resumed and uninterrupted campaigns serialize identically.
  std::vector<std::string> columns{"point", "cell", "replication"};
  for (const SweepAxis& axis : spec.sweep.axes) columns.push_back(axis.param);
  for (const char* metric :
       {"seed", "tx_packets", "rx_packets", "pdr", "mean_delay_s",
        "mean_hop_count", "control_packets", "control_bytes",
        "mac_collisions", "mac_retries", "channel_utilization"}) {
    columns.emplace_back(metric);
  }
  TableWriter csv(columns);
  double pdr_sum = 0.0, pdr_min = 1e308, pdr_max = 0.0;
  for (const CampaignPoint& point : points) {
    const std::string path =
        join_output_path(output_dir, point_manifest_path(spec, point.index));
    const obs::RunManifest manifest = obs::RunManifest::read_file(path);
    std::vector<TableCell> row;
    row.push_back(static_cast<std::int64_t>(point.index));
    row.push_back(static_cast<std::int64_t>(point.cell));
    row.push_back(static_cast<std::int64_t>(point.replication));
    for (const auto& [param, value] : point.axis_values) {
      row.push_back(std::string(manifest.param("sweep." + param, value)));
    }
    // The expansion's seed, not manifest.seed: the manifest read path
    // goes through a JSON double, which cannot represent a full 64-bit
    // substream seed exactly.
    row.push_back(std::to_string(point.scenario.config.seed));
    for (const char* metric :
         {"tx_packets", "rx_packets", "pdr", "mean_delay_s",
          "mean_hop_count", "control_packets", "control_bytes",
          "mac_collisions", "mac_retries", "channel_utilization"}) {
      row.push_back(manifest.metric(metric));
    }
    csv.add_row(std::move(row));
    const double pdr = manifest.metric("pdr");
    pdr_sum += pdr;
    pdr_min = std::min(pdr_min, pdr);
    pdr_max = std::max(pdr_max, pdr);
  }
  const std::string csv_path = join_output_path(output_dir, spec.outputs.csv);
  if (!csv.write_csv_file(csv_path)) {
    throw std::runtime_error("cannot write campaign csv " + csv_path);
  }

  obs::RunManifest summary;
  summary.name = manifest_stem(spec.outputs.manifest);
  summary.seed = spec.scenario.config.seed;
  summary.sim_duration_s = spec.scenario.config.duration_s;
  summary.set_param("spec_name", spec.name);
  summary.set_param("spec_fingerprint", spec.fingerprint);
  summary.set_param("points", static_cast<std::int64_t>(points.size()));
  summary.set_param("replications", spec.sweep.replications);
  for (const SweepAxis& axis : spec.sweep.axes) {
    std::string values;
    for (const obs::JsonValue& value : axis.values) {
      if (!values.empty()) values += ",";
      values += render_value(value);
    }
    summary.set_param("axis." + axis.param, values);
  }
  if (!points.empty()) {
    summary.set_metric("mean_pdr",
                       pdr_sum / static_cast<double>(points.size()));
    summary.set_metric("min_pdr", pdr_min);
    summary.set_metric("max_pdr", pdr_max);
  }
  summary.strip_volatile();
  const std::string summary_path =
      join_output_path(output_dir, spec.outputs.manifest);
  if (!summary.write_file(summary_path)) {
    throw std::runtime_error("cannot write campaign manifest " + summary_path);
  }
}

#pragma GCC diagnostic pop

CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const CampaignOptions& options) {
  const std::vector<CampaignPoint> points = expand_points(spec);
  CampaignOutcome outcome;
  outcome.points_total = points.size();

  std::cout << spec.title << ": campaign \"" << spec.name << "\", "
            << points.size() << " points (";
  if (spec.sweep.axes.empty()) {
    std::cout << "no sweep axes";
  } else {
    for (std::size_t a = 0; a < spec.sweep.axes.size(); ++a) {
      std::cout << (a ? " x " : "") << spec.sweep.axes[a].param << "["
                << spec.sweep.axes[a].values.size() << "]";
    }
  }
  std::cout << " x " << spec.sweep.replications
            << " replications), fingerprint " << spec.fingerprint << "\n";

  // Resume scan: trust only manifests this exact spec produced.
  std::vector<bool> done(points.size(), false);
  if (options.resume) {
    for (const CampaignPoint& point : points) {
      const std::string path = join_output_path(
          options.output_dir, point_manifest_path(spec, point.index));
      try {
        const obs::RunManifest manifest = obs::RunManifest::read_file(path);
        if (manifest.param("spec_fingerprint") == spec.fingerprint &&
            manifest.param("point_index") == std::to_string(point.index)) {
          done[point.index] = true;
          ++outcome.points_resumed;
          if (options.progress != nullptr) {
            options.progress->point_resumed(
                point.index, spec.name + "[" + std::to_string(point.index) +
                                 "]");
          }
        } else {
          std::cout << "  stale checkpoint " << path << " (fingerprint "
                    << manifest.param("spec_fingerprint", "<none>")
                    << "), re-running point " << point.index << "\n";
        }
      } catch (const std::exception&) {
        // No (or unreadable) checkpoint: the point just runs.
      }
    }
    std::cout << "  resume: " << outcome.points_resumed << "/" << points.size()
              << " points checkpointed\n";
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!done[i]) pending.push_back(i);
  }
  outcome.points_run = pending.size();

  std::mutex stdout_mutex;
  std::vector<PointFailure> failures;
  runner::for_each(pending.size(), options.jobs,
                   [&](runner::ReplicationContext& ctx) {
    const CampaignPoint& point = points[pending[ctx.index]];
    const std::string point_name =
        spec.name + "[" + std::to_string(point.index) + "]";
    if (options.progress != nullptr) {
      options.progress->point_started(point.index, point_name);
    }
    PointArtifacts artifacts;
    try {
      artifacts = run_campaign_point(spec, point, options.output_dir);
    } catch (const std::exception& e) {
      // A failed point must not abort the sweep: the other points'
      // checkpoints still land (so --resume re-runs only the failures),
      // and every failure is reported — with its point id — after every
      // point ran.
      if (options.progress != nullptr) {
        options.progress->point_failed(point.index, point_name, e.what());
      }
      const std::lock_guard<std::mutex> lock(stdout_mutex);
      failures.push_back({point.index, e.what()});
      std::fprintf(stderr, "  point %zu FAILED: %s\n", point.index, e.what());
      return;
    }
    if (options.progress != nullptr) {
      options.progress->point_finished(point.index, point_name,
                                       artifacts.events_dispatched);
    }

    const std::lock_guard<std::mutex> lock(stdout_mutex);
    std::printf("  point %zu/%zu cell %zu rep %zu seed %llu pdr %.3f\n",
                point.index + 1, points.size(), point.cell, point.replication,
                static_cast<unsigned long long>(point.scenario.config.seed),
                artifacts.pdr);
  });

  if (!failures.empty()) {
    std::sort(failures.begin(), failures.end(),
              [](const PointFailure& a, const PointFailure& b) {
                return a.index < b.index;
              });
    std::string message =
        "campaign \"" + spec.name + "\": " + std::to_string(failures.size()) +
        " of " + std::to_string(points.size()) + " points failed:";
    for (const PointFailure& failure : failures) {
      message +=
          " [point " + std::to_string(failure.index) + ": " + failure.error +
          "]";
    }
    throw CampaignError(message, std::move(failures));
  }

  write_campaign_outputs(spec, points, options.output_dir);
  const std::string csv_path =
      join_output_path(options.output_dir, spec.outputs.csv);
  const std::string summary_path =
      join_output_path(options.output_dir, spec.outputs.manifest);

  if (options.progress != nullptr) options.progress->campaign_finished();
  std::cout << "  " << outcome.points_run << " run, "
            << outcome.points_resumed << " resumed -> " << csv_path << ", "
            << summary_path << "\n";
  return outcome;
}

}  // namespace cavenet::spec
