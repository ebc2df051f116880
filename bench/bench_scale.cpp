// Scaling sweep: what does one transmission cost as the fleet grows?
//
// Runs the Table-I protocol stack at constant vehicle density (10 veh/km,
// the paper's 30 vehicles / 3000 m) on proportionally longer circuits for
// N = 30 / 100 / 300 / 1000 vehicles under AODV and OLSR, and reports per
// point: events dispatched, channel transmissions, receive-power
// evaluations performed vs culled by the spatial index (chan.* counters),
// the cull factor (evaluations a full O(N) fan-out would have cost per
// one performed), kernel handler wall time, and whole-run wall clock.
//
// --jobs N     fan the sweep points across N ensemble workers (results
//              are bitwise-identical for every N; wall-clock columns
//              vary).
// --smoke      tiny fleets + short runs; the `bench-smoke` ctest label
//              runs this mode so the bench itself stays green under the
//              sanitizer presets.
// --linear     use the brute-force channel (kLinear) instead of the
//              grid, for A/B-ing the index's win. The grid channel
//              finds receivers from epoch anchors (docs/SCALING.md
//              "Candidate search from epoch anchors"); the perf-smoke
//              ctest bench_check_scale floors that win in-process.
// --vehicles   comma-separated fleet-size override (e.g.
//              --vehicles 10000).
// --duration S sim-seconds override per point.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/kernel_profiler.h"
#include "obs/stats_registry.h"
#include "runner/ensemble.h"
#include "scenario/table1.h"
#include "util/cli_args.h"
#include "util/table_writer.h"

namespace {

using namespace cavenet;

/// One sweep point's outcome: the flow result plus the channel and
/// kernel cost the sweep exists for.
struct ScalePoint {
  scenario::SenderRunResult flow;
  std::uint64_t tx = 0;         ///< chan.tx
  std::uint64_t evaluated = 0;  ///< chan.evaluated
  std::uint64_t culled = 0;     ///< chan.culled
  /// (evaluated + culled) / evaluated: receive-power evaluations a full
  /// O(N) fan-out would have cost per one performed. 1.0 = no culling.
  double cull_factor = 1.0;
  double kernel_ms = 0.0;       ///< handler wall time (kernel profiler)
  double wall_s = 0.0;          ///< whole-run wall clock
};

ScalePoint run_point(scenario::TableIConfig config) {
  obs::StatsRegistry stats;
  obs::KernelProfiler profiler;
  config.obs.stats = &stats;
  config.obs.profiler = &profiler;
  ScalePoint point;
  const auto start = std::chrono::steady_clock::now();
  point.flow = scenario::run_table1(config);
  point.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  const obs::StatsSnapshot snapshot = stats.snapshot();
  point.tx = snapshot.counter("chan.tx");
  point.evaluated = snapshot.counter("chan.evaluated");
  point.culled = snapshot.counter("chan.culled");
  if (point.evaluated > 0) {
    point.cull_factor = static_cast<double>(point.evaluated + point.culled) /
                        static_cast<double>(point.evaluated);
  }
  point.kernel_ms = static_cast<double>(profiler.total_wall_ns()) / 1e6;
  return point;
}

std::vector<std::int32_t> parse_fleets(const std::string& csv) {
  std::vector<std::int32_t> fleets;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    const int n = std::atoi(item.c_str());
    if (n < 2) {
      throw std::invalid_argument("--vehicles: bad fleet size '" + item +
                                  "'");
    }
    fleets.push_back(n);
  }
  if (fleets.empty()) throw std::invalid_argument("--vehicles: empty list");
  return fleets;
}

}  // namespace

int main(int argc, char** argv) {
  using scenario::Protocol;

  CliArgs args(argc, argv);
  const int jobs = static_cast<int>(args.get_int("jobs", 1));
  const bool smoke = args.get_bool("smoke", false);
  const bool linear = args.get_bool("linear", false);
  const std::string vehicles_csv = args.get_string("vehicles", "");
  const double duration_override = args.get_double("duration", 0.0);
  for (const std::string& flag : args.unknown_flags()) {
    std::cerr << args.describe_unknown(flag) << "\n";
    return 2;
  }

  std::vector<std::int32_t> fleets;
  try {
    fleets = !vehicles_csv.empty()
                 ? parse_fleets(vehicles_csv)
                 : smoke ? std::vector<std::int32_t>{10, 20}
                         : std::vector<std::int32_t>{30, 100, 300, 1000};
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const double duration_s =
      duration_override > 0.0 ? duration_override : (smoke ? 6.0 : 30.0);

  // Table-I runs (seed 1, CBR 5 pkt/s x 512 B from node 1 to node 0
  // until the end) at the Table-I density, 30 vehicles on 400 cells.
  std::vector<scenario::TableIConfig> sweep;
  for (const Protocol protocol : {Protocol::kAodv, Protocol::kOlsr}) {
    for (const std::int32_t n : fleets) {
      scenario::TableIConfig config;
      config.protocol = protocol;
      config.vehicles = n;
      config.lane_cells = std::llround(400.0 / 30.0 * n);
      config.traffic_start_s = smoke ? 1.0 : 5.0;
      config.traffic_stop_s = duration_s;
      config.duration_s = duration_s;
      config.channel_index =
          linear ? phy::ChannelIndex::kLinear : phy::ChannelIndex::kGrid;
      sweep.push_back(config);
    }
  }

  std::cout << "Scaling sweep: Table-I stack at 10 veh/km, N = ";
  for (std::size_t i = 0; i < fleets.size(); ++i) {
    std::cout << (i ? "/" : "") << fleets[i];
  }
  std::cout << " vehicles, AODV + OLSR, channel index "
            << (linear ? "linear (brute force)" : "grid") << "\n\n";

  const std::vector<ScalePoint> results = runner::map<ScalePoint>(
      sweep.size(), jobs, [&sweep](runner::ReplicationContext& ctx) {
        return run_point(sweep[ctx.index]);
      });

  TableWriter table({"protocol", "N", "PDR", "events", "chan tx",
                     "rx-pow eval", "rx-pow culled", "cull x", "kernel [ms]",
                     "wall [s]", "ev/s"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScalePoint& r = results[i];
    table.add_row({std::string(to_string(sweep[i].protocol)),
                   static_cast<std::int64_t>(sweep[i].vehicles), r.flow.pdr,
                   static_cast<std::int64_t>(r.flow.events_dispatched),
                   static_cast<std::int64_t>(r.tx),
                   static_cast<std::int64_t>(r.evaluated),
                   static_cast<std::int64_t>(r.culled), r.cull_factor,
                   r.kernel_ms, r.wall_s,
                   r.wall_s > 0.0
                       ? static_cast<double>(r.flow.events_dispatched) /
                             r.wall_s
                       : 0.0});
  }
  table.print(std::cout);
  table.write_csv_file("scale.csv");
  std::cout << "\ncsv: scale.csv\n";

  // Sanity gates so the smoke run fails loudly if the index regresses:
  // every pair (transmission, other radio) is either evaluated or culled,
  // and at the largest fleet the index must pay for itself.
  int failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScalePoint& r = results[i];
    const std::string protocol(to_string(sweep[i].protocol));
    const std::int32_t n = sweep[i].vehicles;
    const auto expected = r.tx * static_cast<std::uint64_t>(n - 1);
    if (r.evaluated + r.culled != expected) {
      std::printf("FAIL %s N=%d: eval %llu + culled %llu != tx*(N-1) %llu\n",
                  protocol.c_str(), n,
                  static_cast<unsigned long long>(r.evaluated),
                  static_cast<unsigned long long>(r.culled),
                  static_cast<unsigned long long>(expected));
      ++failures;
    }
    if (!smoke && !linear && n >= 1000 && r.cull_factor < 5.0) {
      std::printf("FAIL %s N=%d: cull factor %.2f < 5\n", protocol.c_str(),
                  n, r.cull_factor);
      ++failures;
    }
  }
  return failures;
}
