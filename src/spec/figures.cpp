#include "spec/figures.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fundamental_diagram.h"
#include "obs/run_manifest.h"
#include "obs/stats_registry.h"
#include "scenario/run_record.h"
#include "scenario/table1.h"
#include "util/table_writer.h"

namespace cavenet::spec {

namespace {

std::string render_p(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", p);
  return buf;
}

}  // namespace

std::string manifest_stem(const std::string& path) {
  std::string stem = path;
  if (const std::size_t slash = stem.find_last_of('/');
      slash != std::string::npos) {
    stem.erase(0, slash + 1);
  }
  for (const char* suffix : {".manifest.json", ".json"}) {
    const std::string s(suffix);
    if (stem.size() > s.size() &&
        stem.compare(stem.size() - s.size(), s.size(), s) == 0) {
      stem.erase(stem.size() - s.size());
      break;
    }
  }
  return stem;
}

std::string join_output_path(const std::string& output_dir,
                             const std::string& path) {
  if (output_dir.empty()) return path;
  return output_dir + "/" + path;
}

// GCC 12 reports a -Wmaybe-uninitialized false positive inside
// std::variant<std::string,...> when the row vectors below are built at
// -O2 (the std::string alternative is never the active member at the
// flagged sites). Suppress it for this translation unit.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

void run_goodput_surface(const CampaignSpec& spec, int jobs,
                         const std::string& output_dir) {
  using namespace cavenet::scenario;

  TableIConfig config = spec.scenario.config;
  std::cout << spec.title << ": " << to_string(config.protocol)
            << " goodput, Table-I scenario\n"
            << "(30 nodes, 3000 m circuit, CBR 5 pkt/s x 512 B from sender "
               "-> node 0, t = 10..90 s)\n\n";

  obs::StatsRegistry stats;  // accumulates across the sender runs
  config.obs.stats = spec.scenario.collect_stats ? &stats : nullptr;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto results = run_all_senders(config, spec.scenario.first_sender,
                                       spec.scenario.last_sender, jobs);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // 10-second aggregate columns keep the printed table readable; the CSV
  // below carries the full per-second series.
  TableWriter table({"sender", "t10-20", "t20-30", "t30-40", "t40-50",
                     "t50-60", "t60-70", "t70-80", "t80-90", "peak [bps]",
                     "PDR"});
  TableWriter csv({"sender", "second", "goodput_bps"});
  for (const auto& r : results) {
    std::vector<TableCell> row;
    row.reserve(11);  // also avoids a GCC 12 -Wmaybe-uninitialized false
                      // positive in std::variant during reallocation
    row.push_back(static_cast<std::int64_t>(r.sender));
    double peak = 0.0;
    for (int window = 1; window < 9; ++window) {
      double sum = 0.0;
      for (int s = window * 10; s < (window + 1) * 10; ++s) {
        const double v = r.goodput_bps[static_cast<std::size_t>(s)];
        sum += v;
        peak = std::max(peak, v);
      }
      row.push_back(sum / 10.0);
    }
    row.push_back(peak);
    row.push_back(r.pdr);
    table.add_row(std::move(row));
    for (std::size_t s = 0; s < r.goodput_bps.size(); ++s) {
      csv.add_row({static_cast<std::int64_t>(r.sender),
                   static_cast<std::int64_t>(s), r.goodput_bps[s]});
    }
  }
  table.print(std::cout);

  const std::string csv_path = join_output_path(output_dir, spec.outputs.csv);
  if (!csv.write_csv_file(csv_path)) {
    throw std::runtime_error("cannot write goodput csv " + csv_path);
  }
  std::cout << "\nFull per-second surface written to " << csv_path << "\n";

  // One telemetry stream per sender run (each sender is its own
  // simulation). The streams contain only sim-time-keyed registry state,
  // so they are byte-identical at any --jobs value.
  if (config.telemetry.enabled()) {
    for (const auto& r : results) {
      const std::string telemetry_path = join_output_path(
          output_dir, spec.name + ".telemetry.s" +
                          std::to_string(r.sender) + ".jsonl");
      std::ofstream out(telemetry_path, std::ios::binary);
      out << r.telemetry_jsonl;
      if (!out.flush()) {
        throw std::runtime_error("cannot write telemetry " + telemetry_path);
      }
    }
    std::cout << "Telemetry streams written to "
              << join_output_path(output_dir,
                                  spec.name + ".telemetry.s<N>.jsonl")
              << " (" << results.size() << " senders)\n";
  }

  // Aggregate statistics the paper narrates.
  double total_rx = 0, total_tx = 0, max_goodput = 0;
  for (const auto& r : results) {
    total_rx += static_cast<double>(r.rx_packets);
    total_tx += static_cast<double>(r.tx_packets);
    for (const double v : r.goodput_bps) max_goodput = std::max(max_goodput, v);
  }
  const double cbr_bps = config.packets_per_second *
                         static_cast<double>(config.payload_bytes) * 8.0;
  std::printf(
      "\noverall PDR %.3f | peak goodput %.0f bps = %.1fx the CBR rate "
      "(%.0f bps)\n",
      total_tx > 0.0 ? total_rx / total_tx : 0.0, max_goodput,
      cbr_bps > 0.0 ? max_goodput / cbr_bps : 0.0, cbr_bps);

  std::printf("wall clock: %.2f s for %zu runs at --jobs %d\n", wall_s,
              results.size(), jobs);

  const std::string manifest_path =
      join_output_path(output_dir, spec.outputs.manifest);
  obs::RunManifest manifest = make_run_manifest(
      manifest_stem(spec.outputs.manifest), config, results, wall_s);
  manifest.set_param("senders",
                     std::to_string(spec.scenario.first_sender) + ".." +
                         std::to_string(spec.scenario.last_sender));
  manifest.set_metric("peak_goodput_bps", max_goodput);
  // Manifests are determinism artifacts: the same build + seed must
  // serialize byte-identically at any --jobs, so wall timing stays on
  // stdout only.
  manifest.strip_volatile();
  if (!manifest.write_file(manifest_path)) {
    throw std::runtime_error("cannot write goodput manifest " + manifest_path);
  }
  std::cout << "Run manifest written to " << manifest_path << "\n";
}

void run_fundamental_diagram(const CampaignSpec& spec, int jobs,
                             const std::string& output_dir) {
  const FundamentalDiagramSpec& fd = spec.fd;

  std::cout << spec.title << ": fundamental diagram, L = " << fd.lane_cells
            << ", " << fd.trials << " trials x " << fd.iterations
            << " iterations per point\n\n";

  ca::FundamentalDiagramOptions options;
  options.params.lane_length = fd.lane_cells;
  options.params.v_max = fd.v_max;
  options.densities = ca::density_ladder(fd.lane_cells, fd.max_density,
                                         static_cast<std::size_t>(fd.points));
  options.iterations = fd.iterations;
  options.trials = fd.trials;
  options.warmup = fd.warmup;
  options.seed = fd.seed;
  options.jobs = jobs;

  std::vector<std::vector<ca::FundamentalDiagramPoint>> curves;
  curves.reserve(fd.slowdown_ps.size());
  for (const double p : fd.slowdown_ps) {
    options.params.slowdown_p = p;
    curves.push_back(ca::fundamental_diagram(options));
  }

  std::vector<std::string> columns{"rho"};
  for (const double p : fd.slowdown_ps) {
    columns.push_back("J (p=" + render_p(p) + ")");
    columns.push_back("sd");
  }
  columns.push_back("J theory (p=0)");
  TableWriter table(columns);
  for (std::size_t i = 0; i < curves.front().size(); ++i) {
    std::vector<TableCell> row;
    row.push_back(curves.front()[i].density);
    for (const auto& curve : curves) {
      row.push_back(curve[i].flow);
      row.push_back(curve[i].flow_stddev);
    }
    row.push_back(
        ca::deterministic_flow(curves.front()[i].density, fd.v_max));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  const std::string csv_path = join_output_path(output_dir, spec.outputs.csv);
  if (!table.write_csv_file(csv_path)) {
    throw std::runtime_error("cannot write fundamental-diagram csv " +
                             csv_path);
  }

  obs::RunManifest manifest;
  manifest.name = manifest_stem(spec.outputs.manifest);
  manifest.seed = fd.seed;
  manifest.set_param("lane_cells", fd.lane_cells);
  manifest.set_param("v_max", static_cast<std::int64_t>(fd.v_max));
  manifest.set_param("max_density", fd.max_density);
  manifest.set_param("points", fd.points);
  manifest.set_param("iterations", fd.iterations);
  manifest.set_param("trials", fd.trials);
  manifest.set_param("warmup", fd.warmup);
  std::string ps;
  for (const double p : fd.slowdown_ps) {
    if (!ps.empty()) ps += ",";
    ps += render_p(p);
  }
  manifest.set_param("slowdown_p", ps);
  for (std::size_t c = 0; c < curves.size(); ++c) {
    double peak = 0.0, peak_rho = 0.0;
    for (const auto& point : curves[c]) {
      if (point.flow > peak) {
        peak = point.flow;
        peak_rho = point.density;
      }
    }
    const std::string suffix = "(p=" + render_p(fd.slowdown_ps[c]) + ")";
    manifest.set_metric("peak_flow" + suffix, peak);
    manifest.set_metric("peak_density" + suffix, peak_rho);
    std::printf("peak J%s = %.3f at rho = %.3f\n", suffix.c_str(), peak,
                peak_rho);
  }
  manifest.strip_volatile();
  const std::string manifest_path =
      join_output_path(output_dir, spec.outputs.manifest);
  if (!manifest.write_file(manifest_path)) {
    throw std::runtime_error("cannot write fundamental-diagram manifest " +
                             manifest_path);
  }
}

#pragma GCC diagnostic pop

}  // namespace cavenet::spec
