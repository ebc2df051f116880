// cavenet — command-line front end to the CAVENET++ library.
//
// Subcommands (mirroring the original CAVENET's MATLAB workflows):
//   trace        generate an ns-2 mobility trace from the CA (or RW) model
//   spacetime    ASCII space-time plot
//   stats        jam-cluster, gap and velocity statistics of one lane
//   connectivity connectivity time series of a CA trace
//
// Fundamental diagrams and protocol runs are spec kinds: run
// examples/specs/fig4_fundamental_diagram.json or fig8_aodv.json (or a
// spec of your own) with cavenet-run.
//
// Run `cavenet <subcommand> --help` equivalent: any unknown flag aborts
// with the list of valid flags for that subcommand.
#include <cstdio>
#include <iostream>
#include <string>

#include "core/geometry.h"
#include "core/nas_lane.h"
#include "core/road.h"
#include "core/lane_statistics.h"
#include "core/space_time.h"
#include "trace/connectivity.h"
#include "trace/csv_format.h"
#include "trace/ns2_format.h"
#include "trace/random_waypoint.h"
#include "trace/trace_generator.h"
#include "util/cli_args.h"
#include "util/table_writer.h"

namespace {

using namespace cavenet;

int usage() {
  std::fprintf(stderr,
               "usage: cavenet <subcommand> [flags]\n"
               "  trace        --nodes N --steps S --cells L --p P --seed K\n"
               "               [--line] [--rw] [--format ns2|csv] [--out FILE]\n"
               "  spacetime    --rho R --p P --cells L --steps S\n"
               "  stats        --rho R --p P [--cells L] [--steps S]\n"
               "  connectivity --nodes N --steps S --p P [--range M]\n");
  return 2;
}

int reject_unknown(const CliArgs& args) {
  const auto unknown = args.unknown_flags();
  if (unknown.empty()) return 0;
  for (const auto& flag : unknown) {
    std::fprintf(stderr, "%s\n", args.describe_unknown(flag).c_str());
  }
  return 2;
}

ca::Road make_ca_road(std::int64_t cells, std::int64_t nodes, double p,
                      std::uint64_t seed, bool line) {
  ca::NasParams params;
  params.lane_length = cells;
  params.slowdown_p = p;
  ca::Road road;
  ca::NasLane lane(params, nodes, ca::InitialPlacement::kRandom, Rng(seed));
  if (line) {
    road.add_lane(std::move(lane), ca::make_line(params.lane_length_m()));
  } else {
    road.add_lane(std::move(lane), ca::make_circuit(params.lane_length_m()));
  }
  return road;
}

int cmd_trace(const CliArgs& args) {
  const auto nodes = args.get_int("nodes", 30);
  const auto steps = args.get_int("steps", 100);
  const auto cells = args.get_int("cells", 400);
  const double p = args.get_double("p", 0.3);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool line = args.get_bool("line", false);
  const bool rw = args.get_bool("rw", false);
  const std::string format = args.get_string("format", "ns2");
  const std::string out = args.get_string("out", "");
  if (const int rc = reject_unknown(args)) return rc;
  if (format != "ns2" && format != "csv") {
    std::fprintf(stderr, "unknown format: %s\n", format.c_str());
    return 2;
  }

  trace::MobilityTrace mobility;
  if (rw) {
    trace::RandomWaypointOptions options;
    options.nodes = static_cast<std::uint32_t>(nodes);
    options.duration_s = static_cast<double>(steps);
    options.seed = seed;
    mobility = trace::generate_random_waypoint(options);
  } else {
    ca::Road road = make_ca_road(cells, nodes, p, seed, line);
    trace::TraceGeneratorOptions options;
    options.steps = steps;
    mobility = trace::generate_trace(road, options);
  }
  if (format == "csv") {
    trace::CsvExportOptions csv;
    csv.t_end_s = static_cast<double>(steps);
    if (out.empty()) {
      trace::write_positions_csv(mobility, std::cout, csv);
    } else if (!trace::write_positions_csv_file(mobility, out, csv)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    return 0;
  }
  if (out.empty()) {
    trace::write_ns2(mobility, std::cout);
  } else if (!trace::write_ns2_file(mobility, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  } else {
    std::fprintf(stderr, "wrote %zu events for %u nodes to %s\n",
                 mobility.events.size(), mobility.node_count(), out.c_str());
  }
  return 0;
}

int cmd_stats(const CliArgs& args) {
  const double rho = args.get_double("rho", 0.075);
  const double p = args.get_double("p", 0.5);
  const auto cells = args.get_int("cells", 400);
  const auto steps = args.get_int("steps", 500);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (const int rc = reject_unknown(args)) return rc;

  ca::NasParams params;
  params.lane_length = cells;
  params.slowdown_p = p;
  ca::NasLane lane(params,
                   static_cast<std::int64_t>(rho * static_cast<double>(cells)),
                   ca::InitialPlacement::kRandom, Rng(seed));
  lane.run(200);
  ca::LaneStatistics stats(params);
  for (std::int64_t i = 0; i < steps; ++i) {
    lane.step();
    stats.record(lane);
  }
  TableWriter table({"metric", "value"});
  table.add_row({std::string("samples"),
                 static_cast<std::int64_t>(stats.samples())});
  table.add_row({std::string("mean jam clusters"), stats.mean_jam_clusters()});
  table.add_row({std::string("P(gap >= 250 m)"), stats.gap_exceedance(34)});
  table.add_row({std::string("P(ring partitioned)"),
                 stats.multi_gap_fraction(34, 2)});
  for (int v = 0; v <= 5; ++v) {
    table.add_row({std::string("P(v=") + std::to_string(v) + ")",
                   stats.velocity_probability(v)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_spacetime(const CliArgs& args) {
  const double rho = args.get_double("rho", 0.1);
  const double p = args.get_double("p", 0.3);
  const auto cells = args.get_int("cells", 200);
  const auto steps = args.get_int("steps", 40);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (const int rc = reject_unknown(args)) return rc;

  ca::NasParams params;
  params.lane_length = cells;
  params.slowdown_p = p;
  ca::NasLane lane(params,
                   static_cast<std::int64_t>(rho * static_cast<double>(cells)),
                   ca::InitialPlacement::kRandom, Rng(seed));
  const auto raster = ca::record_space_time(lane, steps);
  raster.render_ascii(std::cout, 120);
  return 0;
}

int cmd_connectivity(const CliArgs& args) {
  const auto nodes = args.get_int("nodes", 30);
  const auto steps = args.get_int("steps", 100);
  const double p = args.get_double("p", 0.5);
  const double range = args.get_double("range", 250.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (const int rc = reject_unknown(args)) return rc;

  ca::Road road = make_ca_road(400, nodes, p, seed, false);
  trace::TraceGeneratorOptions trace_options;
  trace_options.steps = steps;
  const auto mobility = trace::generate_trace(road, trace_options);
  const auto paths = trace::compile_paths(mobility);

  trace::ConnectivitySweepOptions sweep;
  sweep.range_m = range;
  sweep.t_end_s = static_cast<double>(steps);
  TableWriter csv({"t", "components", "largest", "pair_connectivity"});
  for (const auto& sample : trace::connectivity_over_time(paths, sweep)) {
    csv.add_row({sample.time_s, static_cast<std::int64_t>(sample.components),
                 static_cast<std::int64_t>(sample.largest_component),
                 sample.pair_connectivity});
  }
  csv.write_csv(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string subcommand = argv[1];
  const CliArgs args(argc - 1, argv + 1);
  try {
    if (subcommand == "trace") return cmd_trace(args);
    if (subcommand == "spacetime") return cmd_spacetime(args);
    if (subcommand == "connectivity") return cmd_connectivity(args);
    if (subcommand == "stats") return cmd_stats(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
