// cavenet_bench: runs one benchmark workload in this process and reports
// what it measured. benchmark/run.py builds it, starts one process per
// workload, and turns the report into the metrics BENCHMARK.json names
// (benchmark/README.md defines each one).
//
//   cavenet_bench --workload NAME --seed S --seconds T --trace 0|1
//                 --work-dir DIR [--expect DIGEST] [--smoke]
//   cavenet_bench --describe          (build descriptor only)
//
// Workloads: paper_figs, scale_10k, olsr_1k, serve_mixed. With --trace 0
// no observability hook is attached and the end-to-end metrics are
// measured. With --trace 1 untraced and traced units alternate, and the
// per-layer readings come from the traced ones: the kernel profiler plus
// the stats registry, with set-up calls timed here around each layer.
//
// A run repeats its unit of work until --seconds are used. Unit i draws
// its scenario from unit_seed(S, i), so a run averages over several
// mobility realizations; unit 0 is the seed itself, whose output digest
// --expect checks. Every unit's output is checked (digests, invariants);
// each failed check counts against the operation it belongs to. The last
// stdout line is one JSON object.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "obs/json.h"
#include "obs/kernel_profiler.h"
#include "obs/run_manifest.h"
#include "obs/stats_registry.h"
#include "scenario/table1.h"
#include "serve/http.h"
#include "serve/service.h"
#include "spec/build.h"
#include "spec/campaign.h"
#include "spec/engine.h"
#include "spec/fingerprint.h"
#include "spec/spec.h"
#include "trace/mobility_trace.h"
#include "util/cli_args.h"

namespace {

namespace fs = std::filesystem;
using namespace cavenet;
using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile; 0 when there are no samples.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Scenario seed of unit `index`: unit 0 runs `seed` itself, later units
/// fresh realizations.
std::uint64_t unit_seed(std::uint64_t seed, int index) {
  return seed + static_cast<std::uint64_t>(index) * 1000003;
}

std::string hex_digest(std::uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out.flush()) throw std::runtime_error("cannot write " + path.string());
}

/// High-water resident memory of this process image. getrusage's
/// ru_maxrss would also count the parent's memory the exec replaced.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Executor lanes a 4-thread configuration may use on this machine.
int max_threads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// Manifests name the build they came from; the digest must not.
std::string without_git_describe(std::string manifest) {
  const std::string key = "\"git_describe\":\"";
  const std::size_t start = manifest.find(key);
  if (start == std::string::npos) return manifest;
  const std::size_t value = start + key.size();
  std::size_t end = value;
  while (end < manifest.size() && manifest[end] != '"') {
    end += manifest[end] == '\\' ? 2 : 1;
  }
  manifest.erase(value, std::min(end, manifest.size()) - value);
  return manifest;
}

/// Every field of a run's results, doubles in hexfloat: two runs that
/// differ in any simulated outcome differ here.
std::string dump_results(const std::vector<scenario::SenderRunResult>& runs) {
  const auto hex = [](double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return std::string(buf);
  };
  std::ostringstream out;
  for (const scenario::SenderRunResult& r : runs) {
    out << r.sender << ' ' << r.tx_packets << ' ' << r.rx_packets << ' '
        << hex(r.pdr) << ' ' << hex(r.mean_delay_s) << ' '
        << hex(r.max_delay_s) << ' ' << hex(r.first_delivery_delay_s) << ' '
        << hex(r.mean_hop_count) << '\n'
        << r.control_packets << ' ' << r.control_bytes << ' '
        << r.route_discoveries << ' ' << r.mac_collisions << ' '
        << r.mac_retries << ' ' << r.mac_tx_failed << ' '
        << r.events_dispatched << ' ' << hex(r.channel_utilization) << '\n';
    for (const double g : r.goodput_bps) out << hex(g) << ' ';
    out << '\n' << r.telemetry_jsonl << '\n';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Report: what the process prints.

/// Operations attempted and failed, plus one message per failed check.
class Ledger {
 public:
  /// Counts one operation; it failed when any of its checks did.
  void record(const std::string& op, const std::vector<std::string>& problems) {
    ++attempted_;
    if (problems.empty()) return;
    ++failed_;
    for (const std::string& problem : problems) {
      messages_.push_back(op + ": " + problem);
    }
  }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// How fast this host runs while a workload does. On a shared host the
/// speed of one core drifts by a quarter within minutes as other tenants
/// come and go, which would swamp any regression bound on a wall time. A
/// fixed loop of heap churn (the event queue's kind of work, compiled
/// into this file so no change to src/ alters it) is timed around the
/// timed work, and a wall time is scaled by kNominalLoopS / (loop time
/// around it): it then reads as seconds on a host that runs the loop in
/// kNominalLoopS.
class HostSpeed {
 public:
  static constexpr double kNominalLoopS = 0.010;

  /// Times the loop `times` times; returns kNominalLoopS / their median.
  double sample(int times = 3) {
    std::vector<double> batch;
    for (int i = 0; i < times; ++i) batch.push_back(time_loop());
    loop_s_.insert(loop_s_.end(), batch.begin(), batch.end());
    return kNominalLoopS / median(batch);
  }
  /// Median of every loop timed so far; 0 before the first.
  double median_loop_s() const { return median(loop_s_); }

 private:
  static double time_loop();
  std::vector<double> loop_s_;
};

/// Keeps the loop's result observable, so the loop is not optimized away.
volatile std::uint64_t loop_sink = 0;

double HostSpeed::time_loop() {
  const auto start = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> heap;
  heap.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    heap.push_back(next() % 1000000);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  for (int i = 0; i < 110000; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    heap.back() += next() % 1000;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  loop_sink = heap.front();
  return elapsed_s(start);
}

struct Report {
  Ledger ledger;
  std::string digest;  ///< output digest of unit 0
  std::vector<std::pair<std::string, double>> metrics;
  /// Readings run.py prints but does not score: sample counts, raw
  /// end-to-end times, and the job-latency quantiles only serve_mixed has.
  std::vector<std::pair<std::string, double>> info;
  HostSpeed host;

  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  /// An end-to-end reading scaled by host speed; the raw one is info.
  void host_metric(const std::string& name, double raw, double adjusted) {
    metric(name, adjusted);
    info.emplace_back(name + ".raw", raw);
  }
};

/// Checks accumulate here; an empty list means the operation passed.
struct Problems {
  std::vector<std::string> list;
  void expect(bool ok, const std::string& what) {
    if (!ok) list.push_back(what);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 3;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  fs::path work_dir;
  std::string expect;  ///< expected digest of unit 0 ("" = not checked)
};

// ---------------------------------------------------------------------------
// Set-up: the calls a run makes before its first event, timed one by one.

struct SetupTimes {
  double load_s = 0.0;
  double generate_s = 0.0;
  double compile_s = 0.0;
  double build_s = 0.0;
  std::uint64_t trace_events = 0;

  double total_s() const { return load_s + generate_s + compile_s + build_s; }
};

/// Loads `spec_file` and sets up every point it expands to: generates
/// and compiles the point's mobility trace and builds every node stack
/// with a zero-length run.
SetupTimes set_up_campaign(const fs::path& spec_file) {
  SetupTimes t;
  auto start = Clock::now();
  const spec::CampaignSpec spec = spec::load_campaign_file(spec_file.string());
  const std::vector<spec::CampaignPoint> points = spec::expand_points(spec);
  t.load_s = elapsed_s(start);
  for (const spec::CampaignPoint& point : points) {
    start = Clock::now();
    const trace::MobilityTrace mobility =
        scenario::make_table1_trace(point.scenario.config);
    t.generate_s += elapsed_s(start);
    t.trace_events += mobility.events.size();

    start = Clock::now();
    const std::vector<trace::NodePath> paths = trace::compile_paths(mobility);
    t.compile_s += elapsed_s(start);

    scenario::TableIConfig zero = point.scenario.config;
    zero.duration_s = 0.0;
    zero.traffic_start_s = 0.0;
    zero.traffic_stop_s = 0.0;
    start = Clock::now();
    scenario::run_with_trace(mobility, zero, {zero.sender});
    t.build_s += elapsed_s(start);
  }
  return t;
}

/// Repeats `set_up` for at least 5 repetitions and 1 s (at most 2000
/// repetitions) and reports the medians. Sampling a whole second keeps
/// them steady on a host whose speed wavers from one 100 ms to the next.
void measure_setup(const std::function<SetupTimes()>& set_up, bool smoke,
                   Report& report) {
  std::vector<SetupTimes> reps;
  const auto start = Clock::now();
  while (reps.size() < (smoke ? 2u : 5u) ||
         (!smoke && reps.size() < 2000 && elapsed_s(start) < 1.0)) {
    reps.push_back(set_up());
  }
  const double host_factor = report.host.sample(5);
  std::vector<double> total, load, generate, compile, build;
  for (const SetupTimes& t : reps) {
    total.push_back(t.total_s());
    load.push_back(t.load_s * 1e3);
    generate.push_back(t.generate_s * 1e3);
    compile.push_back(t.compile_s * 1e3);
    build.push_back(t.build_s * 1e3);
  }
  report.host_metric("setup_s", median(total), median(total) * host_factor);
  report.metric("spec.load_ms", median(load));
  report.metric("trace.generate_ms", median(generate));
  report.metric("trace.compile_ms", median(compile));
  report.metric("trace.events", static_cast<double>(reps.back().trace_events));
  report.metric("scenario.build_ms", median(build));
  report.info.emplace_back("setup_reps", static_cast<double>(reps.size()));
}

// ---------------------------------------------------------------------------
// Units: one repeatable piece of simulation work.

/// Sinks a traced unit attaches; both null for an untraced unit.
struct Hooks {
  obs::StatsRegistry* stats = nullptr;
  obs::KernelProfiler* profiler = nullptr;
};

/// The simulated work counts the traced run reports; a pure speed change
/// leaves every one of them unchanged.
constexpr const char* kCounters[] = {
    "chan.tx",           "chan.evaluated",       "chan.culled",
    "phy.rx.frames",     "phy.drop.collision",   "mac.tx.data",
    "mac.retry",         "mac.drop.retry_limit", "rtr.tx.control",
    "rtr.drop.no_route", "agt.tx.cbr",           "agt.rx.delivered"};

struct Unit {
  double wall_s = 0.0;
  /// HostSpeed scale for wall_s: from the loops timed just before and
  /// just after the unit (1 for traced units).
  double host_factor = 1.0;
  std::uint64_t events = 0;
  /// Simulated outcome; identical traced or not, at any thread count.
  std::string digest;
  /// What --expect is compared against: `digest`, or for paper_figs the
  /// CSV and manifest bytes (whose stats differ when traced).
  std::string artifact_digest;
  std::map<std::string, std::uint64_t> counters;  ///< kCounters
  Problems problems;
};

/// Runs unit `index` (see unit_seed) at `threads` executor lanes.
using UnitFn = std::function<Unit(const Hooks&, int threads, int index)>;

void add_counters(const obs::StatsSnapshot& stats, Unit& unit) {
  for (const char* name : kCounters) unit.counters[name] += stats.counter(name);
}

/// Every (transmission, other radio) pair is either evaluated or culled.
void check_channel_pairs(Unit& unit, std::int64_t nodes) {
  const std::uint64_t expected =
      unit.counters["chan.tx"] * static_cast<std::uint64_t>(nodes - 1);
  const std::uint64_t pairs =
      unit.counters["chan.evaluated"] + unit.counters["chan.culled"];
  unit.problems.expect(pairs == expected,
                       "chan.evaluated + chan.culled = " +
                           std::to_string(pairs) + " != chan.tx x (N-1) = " +
                           std::to_string(expected));
}

/// Unit 0's output digest is the workload's; it must match `expect`
/// unless that is empty.
void check_first_unit(Unit& unit, const std::string& expect, Report& report) {
  report.digest = unit.artifact_digest;
  if (!expect.empty()) {
    unit.problems.expect(unit.artifact_digest == expect,
                         "output digest " + unit.artifact_digest +
                             " != expected " + expect);
  }
}

/// Runs untraced units 0, 1, ... until `seconds` are used (at least
/// `min_units`).
std::vector<Unit> measure_units(const UnitFn& unit, int threads,
                                const Options& options, int min_units,
                                const std::string& name, Report& report) {
  std::vector<Unit> units;
  double factor_before = report.host.sample();
  const auto start = Clock::now();
  while (static_cast<int>(units.size()) < min_units ||
         elapsed_s(start) + units.back().wall_s <= options.seconds) {
    const int index = static_cast<int>(units.size());
    const std::string op = name + " unit " + std::to_string(index);
    try {
      Unit u = unit(Hooks{}, threads, index);
      if (index == 0) check_first_unit(u, options.expect, report);
      report.ledger.record(op, u.problems.list);
      const double factor_after = report.host.sample();
      u.host_factor = (factor_before + factor_after) / 2;
      factor_before = factor_after;
      units.push_back(std::move(u));
    } catch (const std::exception& error) {
      report.ledger.record(op, {error.what()});
      break;
    }
  }
  return units;
}

void report_end_to_end(const std::vector<Unit>& units, Report& report) {
  std::vector<double> walls, adjusted;
  double events = 0.0;
  for (const Unit& u : units) {
    walls.push_back(u.wall_s);
    adjusted.push_back(u.wall_s * u.host_factor);
    events += static_cast<double>(u.events);
  }
  const auto rate = [events](const std::vector<double>& w) {
    return sum(w) > 0.0 ? events / sum(w) : 0.0;
  };
  report.host_metric("makespan_s", median(walls), median(adjusted));
  report.host_metric("events_per_s", rate(walls), rate(adjusted));
  report.info.emplace_back("units", static_cast<double>(units.size()));
}

/// The kernel labels the routing protocols schedule under.
bool is_routing_label(std::string_view label) {
  return label == "aodv" || label == "olsr" || label == "dymo" ||
         label == "dsdv";
}

struct TracedUnit {
  Unit unit;
  obs::KernelProfiler profiler;
};

TracedUnit run_traced(const UnitFn& unit, int threads, int index) {
  TracedUnit traced;
  obs::StatsRegistry stats;
  traced.unit = unit(Hooks{&stats, &traced.profiler}, threads, index);
  traced.unit.problems.expect(
      traced.profiler.total_dispatches() == traced.unit.events,
      "profiled dispatches " +
          std::to_string(traced.profiler.total_dispatches()) + " != events " +
          std::to_string(traced.unit.events));
  return traced;
}

/// The traced run: pairs of an untraced and a traced unit (same index)
/// until `seconds` are used, then unit 0 traced at `other_threads`.
/// Counts come from unit 0; times are medians over the pairs. Unit 0's
/// untraced output must match `expect` unless that is empty.
void trace_units(const UnitFn& unit, int threads, int other_threads,
                 double seconds, const std::string& expect,
                 const std::string& name, Report& report) {
  std::vector<double> untraced_walls, overhead;
  std::vector<TracedUnit> traced;
  const auto start = Clock::now();
  try {
    // Another pair runs while it and the thread variant fit in `seconds`.
    do {
      const int index = static_cast<int>(traced.size());
      const std::string pair = name + " pair " + std::to_string(index);
      Unit plain = unit(Hooks{}, threads, index);
      if (index == 0) check_first_unit(plain, expect, report);
      TracedUnit t = run_traced(unit, threads, index);
      t.unit.problems.expect(t.unit.digest == plain.digest,
                             "traced digest " + t.unit.digest +
                                 " != untraced digest " + plain.digest);
      report.ledger.record(pair + " untraced", plain.problems.list);
      report.ledger.record(pair + " traced", t.unit.problems.list);
      untraced_walls.push_back(plain.wall_s);
      overhead.push_back(t.unit.wall_s / plain.wall_s - 1.0);
      traced.push_back(std::move(t));
    } while (elapsed_s(start) + 3.0 * untraced_walls.back() <= seconds);
  } catch (const std::exception& error) {
    report.ledger.record(name + " traced pair", {error.what()});
    return;
  }
  const Unit& first = traced.front().unit;

  // exec.speedup = wall(fewer lanes) / wall(more lanes), both traced.
  double speedup = 0.0;
  try {
    TracedUnit other = run_traced(unit, other_threads, 0);
    other.unit.problems.expect(
        other.unit.digest == first.digest,
        "threads-" + std::to_string(other_threads) + " digest " +
            other.unit.digest + " != threads-" + std::to_string(threads) +
            " digest " + first.digest);
    report.ledger.record(name + " threads " + std::to_string(other_threads),
                         other.unit.problems.list);
    speedup = threads < other_threads ? first.wall_s / other.unit.wall_s
                                      : other.unit.wall_s / first.wall_s;
  } catch (const std::exception& error) {
    report.ledger.record(name + " threads variant", {error.what()});
  }

  constexpr const char* kLabels[] = {"phy", "chan", "mac", "routing",
                                     "app.cbr"};
  std::vector<double> ns_per_event, unattributed_ms, coverage;
  std::map<std::string, std::vector<double>> label_ms;
  std::map<std::string, std::uint64_t> first_dispatches;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const TracedUnit& t = traced[i];
    const double wall_ms = t.unit.wall_s * 1e3;
    const double handlers_ms =
        static_cast<double>(t.profiler.total_wall_ns()) / 1e6;
    ns_per_event.push_back(untraced_walls[i] * 1e9 /
                           static_cast<double>(t.unit.events));
    unattributed_ms.push_back(wall_ms - handlers_ms);
    coverage.push_back(handlers_ms / wall_ms);
    // Each routing protocol's label, and their sum as "routing": only the
    // sum exists on every workload.
    std::map<std::string, double> per_label_ms;
    for (const auto& [label, component] : t.profiler.components()) {
      std::vector<std::string> keys{std::string(label)};
      if (is_routing_label(label)) keys.emplace_back("routing");
      for (const std::string& key : keys) {
        per_label_ms[key] += static_cast<double>(component.wall_ns) / 1e6;
        if (i == 0) first_dispatches[key] += component.dispatches;
      }
    }
    for (const auto& [label, ms] : per_label_ms) label_ms[label].push_back(ms);
  }
  report.metric("netsim.events", static_cast<double>(first.events));
  report.metric("netsim.ns_per_event", median(ns_per_event));
  report.metric("netsim.unattributed_ms", median(unattributed_ms));
  report.metric("kernel.coverage", median(coverage));
  for (const char* label : kLabels) {
    const std::string prefix = std::string("kernel.") + label;
    report.metric(prefix + ".wall_ms", median(label_ms[label]));
    report.metric(prefix + ".dispatches",
                  static_cast<double>(first_dispatches[label]));
  }
  for (const auto& [label, ms] : label_ms) {
    if (!is_routing_label(label)) continue;
    report.info.emplace_back("kernel." + label + ".wall_ms", median(ms));
    report.info.emplace_back("kernel." + label + ".dispatches",
                             static_cast<double>(first_dispatches[label]));
  }
  for (const char* counter : kCounters) {
    report.metric(counter, static_cast<double>(first.counters.at(counter)));
  }
  const double tx = static_cast<double>(first.counters.at("chan.tx"));
  const double evaluated =
      static_cast<double>(first.counters.at("chan.evaluated"));
  const double rx = static_cast<double>(first.counters.at("phy.rx.frames"));
  report.metric("chan.evaluated_per_tx", tx > 0.0 ? evaluated / tx : 0.0);
  report.metric("phy.rx_yield", evaluated > 0.0 ? rx / evaluated : 0.0);
  report.metric("exec.speedup", speedup);
  report.metric("obs.trace_overhead", median(overhead));
  report.info.emplace_back("pairs", static_cast<double>(traced.size()));
}

/// Serve counters the traced run reports; zero on workloads without the
/// job service.
constexpr const char* kServeCounters[] = {
    "serve.cache.hits",          "serve.cache.misses",
    "serve.cache.bytes_written", "serve.cache.bytes_served",
    "serve.units.executed",      "serve.http.requests"};

void report_no_serve(Report& report) {
  for (const char* name : kServeCounters) report.metric(name, 0.0);
  report.metric("serve.journal_bytes", 0.0);
}

// ---------------------------------------------------------------------------
// paper_figs: the paper's Table-I runs (fig8-10 goodput, fig11 PDR) as one
// campaign through the spec engine.

/// AODV, OLSR and DYMO x senders 1..`senders`, Table-I defaults (30
/// vehicles, 100 s, CBR 10-90 s). Each point draws its own mobility from
/// the campaign seed, so one pass averages over 3 x `senders` realizations.
std::string paper_spec_text(std::uint64_t seed, int senders) {
  std::ostringstream out;
  out << R"({"name": "paper_figs", "kind": "campaign", "scenario": {"seed": )"
      << seed << R"(, "traffic": {"sender": 1}}, "sweep": {"axes": [)"
      << R"({"param": "routing.protocol", "values": ["aodv", "olsr", "dymo"]}, )"
      << R"({"param": "traffic.sender", "values": [)";
  for (int i = 1; i <= senders; ++i) out << (i > 1 ? ", " : "") << i;
  out << "]}]}}";
  return out.str();
}

void run_paper_figs(const Options& options, Report& report) {
  const int senders = options.smoke ? 2 : 8;
  const fs::path spec_file = options.work_dir / "paper_figs.json";
  const fs::path out_dir = options.work_dir / "paper";
  write_file(spec_file, paper_spec_text(options.seed, senders));
  measure_setup([&] { return set_up_campaign(spec_file); }, options.smoke,
                report);

  // A traced pass runs the campaign's single-point body itself, since the
  // campaign runner re-parses every point and would drop the hooks.
  const UnitFn pass = [&](const Hooks& hooks, int threads, int index) {
    const auto start = Clock::now();
    const spec::CampaignSpec spec = spec::parse_campaign(
        paper_spec_text(unit_seed(options.seed, index), senders));
    const std::vector<spec::CampaignPoint> points = spec::expand_points(spec);
    Unit unit;
    if (hooks.profiler == nullptr) {
      spec::RunOptions run;
      run.jobs = 1;
      run.threads = threads;
      run.output_dir = out_dir.string();
      const int rc = spec::run_spec(spec, run);
      unit.problems.expect(rc == 0, "run_spec exited " + std::to_string(rc));
    } else {
      fs::create_directories(out_dir);
      for (spec::CampaignPoint point : points) {
        point.scenario.config.parallel.threads = threads;
        point.scenario.config.obs.profiler = hooks.profiler;
        spec::run_campaign_point(spec, point, out_dir.string());
      }
      spec::write_campaign_outputs(spec, points, out_dir.string());
    }
    unit.wall_s = elapsed_s(start);

    const std::string csv = read_file(out_dir / spec.outputs.csv);
    unit.digest = hex_digest(spec::fnv1a64(csv));
    std::uint64_t hash = spec::fnv1a64(csv);
    hash = spec::fnv1a64(
        without_git_describe(read_file(out_dir / spec.outputs.manifest)),
        hash);
    for (const spec::CampaignPoint& point : points) {
      const fs::path path =
          out_dir / spec::point_manifest_path(spec, point.index);
      hash = spec::fnv1a64(without_git_describe(read_file(path)), hash);
      const obs::RunManifest manifest =
          obs::RunManifest::read_file(path.string());
      unit.events += manifest.events_dispatched;
      add_counters(manifest.stats, unit);
    }
    unit.artifact_digest = hex_digest(hash);
    check_channel_pairs(unit, spec.scenario.config.vehicles);
    return unit;
  };

  if (options.trace) {
    trace_units(pass, 1, max_threads(), options.seconds, options.expect,
                "paper_figs", report);
    report_no_serve(report);
    return;
  }
  report_end_to_end(measure_units(pass, 1, options, options.smoke ? 1 : 3,
                                  "paper_figs", report),
                    report);
}

// ---------------------------------------------------------------------------
// scale_10k / olsr_1k: one large fleet at the Table-I density.

struct FleetConfig {
  const char* name;
  const char* protocol;
  std::int64_t vehicles;
  double duration_s;
  double traffic_start_s;
  int shards;
  int threads;
};

std::string fleet_spec_text(const FleetConfig& fleet, std::uint64_t seed) {
  // 400 cells per 30 vehicles (7.5 m cells): 10 vehicles per km.
  const std::int64_t cells = (fleet.vehicles * 400 + 15) / 30;
  std::ostringstream out;
  out << R"({"name": ")" << fleet.name << R"(", "kind": "campaign", )"
      << R"("scenario": {"seed": )" << seed << R"(, "duration_s": )"
      << fleet.duration_s << R"(, "mobility": {"vehicles": )"
      << fleet.vehicles << R"(, "lane_cells": )" << cells
      << R"(}, "routing": {"protocol": ")" << fleet.protocol
      << R"("}, "engine": {"parallel": {"shards": )" << fleet.shards
      << R"(, "threads": )" << fleet.threads
      << R"(}}, "traffic": {"sender": 1, "start_s": )"
      << fleet.traffic_start_s << R"(, "stop_s": )" << fleet.duration_s
      << "}}}";
  return out.str();
}

void run_fleet(const Options& options, const FleetConfig& fleet,
               Report& report) {
  const fs::path spec_file =
      options.work_dir / (std::string(fleet.name) + ".json");
  write_file(spec_file, fleet_spec_text(fleet, options.seed));
  measure_setup([&] { return set_up_campaign(spec_file); }, options.smoke,
                report);
  const spec::CampaignSpec spec = spec::load_campaign_file(spec_file.string());

  const UnitFn run = [&](const Hooks& hooks, int threads, int index) {
    scenario::TableIConfig config = spec.scenario.config;
    config.seed = unit_seed(options.seed, index);
    config.parallel.threads = threads;
    config.obs.stats = hooks.stats;
    config.obs.profiler = hooks.profiler;
    Unit unit;
    const auto start = Clock::now();
    const std::vector<scenario::SenderRunResult> results =
        scenario::run_with_trace(scenario::make_table1_trace(config), config,
                                 {config.sender});
    unit.wall_s = elapsed_s(start);
    unit.events = results.front().events_dispatched;
    unit.digest = hex_digest(spec::fnv1a64(dump_results(results)));
    unit.artifact_digest = unit.digest;
    if (hooks.stats != nullptr) {
      add_counters(hooks.stats->snapshot(), unit);
      check_channel_pairs(unit, config.vehicles);
    }
    return unit;
  };

  if (options.trace) {
    // scale_10k runs at max threads, so its variant is one thread; the
    // single-threaded workloads try max threads.
    const int other = fleet.threads > 1 ? 1 : max_threads();
    trace_units(run, fleet.threads, other, options.seconds, options.expect,
                fleet.name, report);
    report_no_serve(report);
  } else {
    report_end_to_end(
        measure_units(run, fleet.threads, options, 1, fleet.name, report),
        report);
  }
}

// ---------------------------------------------------------------------------
// serve_mixed: a closed-loop client against an in-process JobService.

constexpr int kServePoints = 4;
constexpr int kWarmPerCold = 3;
constexpr const char* kServeCsv = "serve_mix.csv";

/// A 4-point campaign whose fingerprint is new for every `cold_index`.
std::string serve_spec_text(std::uint64_t seed, int cold_index) {
  std::ostringstream out;
  out << R"({"name": "serve_mix", "kind": "campaign", "scenario": {"seed": )"
      << unit_seed(seed, cold_index)
      << R"(, "duration_s": 20, "routing": {"protocol": "aodv"}, )"
      << R"("traffic": {"sender": 1, "start_s": 2, "stop_s": 18}}, )"
      << R"("sweep": {"axes": [{"param": "traffic.sender", "values": [)";
  for (int i = 1; i <= kServePoints; ++i) out << (i > 1 ? ", " : "") << i;
  out << "]}]}}";
  return out.str();
}

struct JobTiming {
  bool cold = false;
  double latency_ms = 0.0;
  double post_ms = 0.0;
  double status_ms = 0.0;
  double fetch_ms = 0.0;
  std::uint64_t events = 0;
};

/// One job, as a user sees it: POST the spec, wait for it, GET its status
/// and its outputs.csv. `expected_csv` empty means the job is cold.
JobTiming run_job(serve::JobService& service, const std::string& spec_text,
                  const std::string& expected_csv, std::string& fetched_csv,
                  Problems& problems) {
  JobTiming timing;
  timing.cold = expected_csv.empty();
  const int port = service.port();
  const auto start = Clock::now();

  auto step = Clock::now();
  const serve::HttpClientResponse posted =
      serve::http_request(port, "POST", "/v1/jobs", spec_text);
  timing.post_ms = elapsed_s(step) * 1e3;
  problems.expect(posted.status == 201,
                  "POST returned " + std::to_string(posted.status));
  if (posted.status != 201) return timing;
  const obs::JsonValue created = obs::parse_json(posted.body);
  const obs::JsonValue* id_value = created.find("job");
  if (id_value == nullptr || !id_value->is_string()) {
    problems.expect(false, "POST response names no job");
    return timing;
  }
  const std::string id = id_value->string;
  problems.expect(service.wait(id, 120.0), "job " + id + " did not finish");

  step = Clock::now();
  const serve::HttpClientResponse status =
      serve::http_request(port, "GET", "/v1/jobs/" + id);
  timing.status_ms = elapsed_s(step) * 1e3;
  problems.expect(status.status == 200,
                  "GET status returned " + std::to_string(status.status));
  if (status.status == 200) {
    const obs::JsonValue doc = obs::parse_json(status.body);
    const obs::JsonValue* state = doc.find("state");
    const obs::JsonValue* hits = doc.find("cache_hits");
    problems.expect(state != nullptr && state->string == "done",
                    "job " + id + " is not done");
    const double want_hits = timing.cold ? 0.0 : kServePoints;
    problems.expect(hits != nullptr && hits->number == want_hits,
                    "job " + id + " cache hits != " +
                        std::to_string(static_cast<int>(want_hits)));
  }

  step = Clock::now();
  const serve::HttpClientResponse fetched = serve::http_request(
      port, "GET", "/v1/jobs/" + id + "/results/" + kServeCsv);
  timing.fetch_ms = elapsed_s(step) * 1e3;
  timing.latency_ms = elapsed_s(start) * 1e3;
  problems.expect(fetched.status == 200,
                  "GET outputs returned " + std::to_string(fetched.status));
  fetched_csv = fetched.body;
  if (!timing.cold) {
    problems.expect(fetched_csv == expected_csv,
                    "warm job " + id + " served other bytes than its cold job");
    return timing;
  }
  const spec::CampaignSpec spec = spec::parse_campaign(spec_text);
  for (std::size_t point = 0; point < kServePoints; ++point) {
    const fs::path manifest = fs::path(service.job_dir(id)) /
                              spec::point_manifest_path(spec, point);
    timing.events +=
        obs::RunManifest::read_file(manifest.string()).events_dispatched;
  }
  return timing;
}

/// One service lifetime: an emptied state dir, `rounds` rounds of one cold job
/// and kWarmPerCold re-submissions of earlier specs, then stop. Each
/// session draws new cold specs, so a run averages over many mobility
/// realizations, and every session has the same number of jobs (the HTTP
/// server keeps each finished connection thread until it stops, so
/// memory grows with jobs per session).
struct Session {
  std::vector<JobTiming> jobs;
  std::string first_cold_csv;  ///< the output --expect checks (session 0)
  std::string last_cold_spec;
  obs::StatsSnapshot stats;
  std::uint64_t journal_bytes = 0;
  double start_ms = 0.0;  ///< JobService start on the emptied state dir
  bool failed = false;
  bool timed = false;  ///< false during the run's warm-up
};

serve::ServiceOptions service_options(const fs::path& state) {
  serve::ServiceOptions options;
  options.state_dir = state.string();
  options.workers = 2;
  return options;
}

Session run_session(const Options& options, const fs::path& state, int index,
                    int rounds, Report& report) {
  const std::string name = "session " + std::to_string(index);
  fs::remove_all(state);
  const auto start = Clock::now();
  serve::JobService service(service_options(state));
  Session session;
  session.start_ms = elapsed_s(start) * 1e3;
  std::mt19937_64 pick(unit_seed(options.seed, index));
  std::vector<std::string> cold_specs;
  std::vector<std::string> cold_csv;
  for (int round = 0; round < rounds && !session.failed; ++round) {
    cold_specs.push_back(
        serve_spec_text(options.seed, index * rounds + round));
    std::vector<std::size_t> sequence{cold_specs.size() - 1};
    for (int w = 0; w < kWarmPerCold; ++w) {
      sequence.push_back(pick() % cold_specs.size());
    }
    for (std::size_t j = 0; j < sequence.size(); ++j) {
      const bool cold = j == 0;
      const std::string op = name + (cold ? " cold job " : " warm job ") +
                             std::to_string(session.jobs.size());
      Problems problems;
      std::string csv;
      try {
        session.jobs.push_back(run_job(service, cold_specs[sequence[j]],
                                       cold ? "" : cold_csv[sequence[j]], csv,
                                       problems));
      } catch (const std::exception& error) {
        problems.expect(false, error.what());
      }
      if (cold) cold_csv.push_back(csv);
      session.failed = session.failed || !problems.list.empty();
      report.ledger.record(op, problems.list);
    }
  }
  session.first_cold_csv = cold_csv.front();
  session.last_cold_spec = cold_specs.back();
  session.stats = service.stats();
  service.stop();
  session.journal_bytes = fs::file_size(state / "journal.jsonl");
  return session;
}

void run_serve(const Options& options, Report& report) {
  const int rounds = options.smoke ? 2 : 40;
  const fs::path spec_file = options.work_dir / "serve_mix.json";
  const fs::path state = options.work_dir / "state";
  write_file(spec_file, serve_spec_text(options.seed, 0));

  // Set-up: what a cold job sets up (spec, trace, node stacks).
  measure_setup([&] { return set_up_campaign(spec_file); }, options.smoke,
                report);

  // A traced run keeps a tenth of its time for the kernel probe below.
  const double probe_s = options.trace ? options.seconds / 10 : 0.0;
  const double sessions_s = options.seconds - probe_s;
  // Sessions that start in the first quarter are checked but not timed.
  // Every session writes and deletes some 1 600 small files; after a
  // quiet spell the file system takes a few sessions to reach the steady
  // state of that churn, and until then warm jobs run up to 4x faster.
  const double warm_up_s = sessions_s / 4;
  std::vector<Session> sessions;
  double session_s = 0.0;
  const auto start = Clock::now();
  do {
    const bool timed = elapsed_s(start) >= warm_up_s;
    const auto session_start = Clock::now();
    sessions.push_back(run_session(options, state,
                                   static_cast<int>(sessions.size()), rounds,
                                   report));
    sessions.back().timed = timed;
    session_s = elapsed_s(session_start);
  } while (!sessions.back().failed &&
           (!sessions.back().timed ||
            elapsed_s(start) + session_s <= sessions_s));
  // Leave no file-system work behind for the next run to compete with.
  fs::remove_all(state);
  ::sync();

  Problems output;
  report.digest = hex_digest(spec::fnv1a64(sessions.front().first_cold_csv));
  output.expect(options.expect.empty() || report.digest == options.expect,
                "output digest " + report.digest + " != expected " +
                    options.expect);
  report.ledger.record("first cold job output", output.list);

  std::vector<double> all_ms, cold_ms, warm_ms, post_ms, status_ms, fetch_ms,
      start_ms;
  double cold_events = 0.0;
  for (const Session& session : sessions) {
    if (!session.timed) continue;
    start_ms.push_back(session.start_ms);
    for (const JobTiming& job : session.jobs) {
      all_ms.push_back(job.latency_ms);
      (job.cold ? cold_ms : warm_ms).push_back(job.latency_ms);
      post_ms.push_back(job.post_ms);
      status_ms.push_back(job.status_ms);
      fetch_ms.push_back(job.fetch_ms);
      cold_events += static_cast<double>(job.events);
    }
  }
  report.info.emplace_back("job_cold_p50_ms", quantile(cold_ms, 0.5));
  report.info.emplace_back("job_cold_p75_ms", quantile(cold_ms, 0.75));
  report.info.emplace_back("job_cold_samples",
                           static_cast<double>(cold_ms.size()));
  report.info.emplace_back("job_warm_p50_ms", quantile(warm_ms, 0.5));
  report.info.emplace_back("job_warm_p90_ms", quantile(warm_ms, 0.9));
  report.info.emplace_back("job_warm_samples",
                           static_cast<double>(warm_ms.size()));
  report.info.emplace_back("serve.post_ms", median(post_ms));
  report.info.emplace_back("serve.status_ms", median(status_ms));
  report.info.emplace_back("serve.fetch_ms", median(fetch_ms));
  report.info.emplace_back("serve.start_ms", median(start_ms));

  if (!options.trace) {
    // Median job (mostly warm: cache reads) and cold-job throughput
    // (simulation, journal, cache writes). Both stay raw: file-system and
    // thread hand-off latency dominate them, which the host-speed loop
    // does not predict.
    report.metric("makespan_s", median(all_ms) / 1e3);
    report.metric("events_per_s",
                  sum(cold_ms) > 0.0 ? cold_events * 1e3 / sum(cold_ms) : 0.0);
    report.info.emplace_back("units", static_cast<double>(all_ms.size()));
    return;
  }

  // The service runs points with no hooks to attach, so the kernel layers
  // are read from the last cold job's points, run directly.
  const spec::CampaignSpec probe_spec =
      spec::parse_campaign(sessions.back().last_cold_spec);
  const std::vector<spec::CampaignPoint> points =
      spec::expand_points(probe_spec);
  const UnitFn probe = [&](const Hooks& hooks, int threads, int) {
    std::vector<scenario::SenderRunResult> results;
    const auto probe_start = Clock::now();
    for (const spec::CampaignPoint& point : points) {
      spec::ScenarioSpec scenario = point.scenario;
      scenario.config.parallel.threads = threads;
      scenario.config.obs.profiler = hooks.profiler;
      results.push_back(spec::run_point(scenario, hooks.stats));
    }
    Unit unit;
    unit.wall_s = elapsed_s(probe_start);
    for (const scenario::SenderRunResult& r : results) {
      unit.events += r.events_dispatched;
    }
    unit.digest = hex_digest(spec::fnv1a64(dump_results(results)));
    unit.artifact_digest = unit.digest;
    if (hooks.stats != nullptr) {
      add_counters(hooks.stats->snapshot(), unit);
      check_channel_pairs(unit, probe_spec.scenario.config.vehicles);
    }
    return unit;
  };
  const std::string serve_digest = report.digest;
  trace_units(probe, 1, max_threads(), probe_s, "", "serve probe", report);
  report.digest = serve_digest;

  for (const char* name : kServeCounters) {
    report.metric(name,
                  static_cast<double>(sessions.back().stats.counter(name)));
  }
  report.metric("serve.journal_bytes",
                static_cast<double>(sessions.back().journal_bytes));
}

// ---------------------------------------------------------------------------

/// The machine and build descriptor every result carries.
void write_build(obs::JsonWriter& w) {
  w.begin_object();
  w.key("nproc");
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("avx2");
  w.value(static_cast<bool>(__builtin_cpu_supports("avx2")));
  w.key("compiler");
#if defined(__clang__)
  w.value("clang " __clang_version__);
#elif defined(__GNUC__)
  w.value("gcc " __VERSION__);
#else
  w.value("unknown");
#endif
  w.key("build_type");
  w.value(CAVENET_BENCH_BUILD_TYPE);
  w.key("cxx_flags");
  w.value(CAVENET_BENCH_CXX_FLAGS);
  w.key("cavenet_simd");
  w.value(CAVENET_BENCH_SIMD);
  w.key("git_describe");
  w.value(obs::build_version());
  w.end_object();
}

void print_report(const Options& options, const Report& report) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value(options.workload);
  w.key("seed");
  w.value(options.seed);
  w.key("trace");
  w.value(options.trace);
  w.key("attempted");
  w.value(report.ledger.attempted());
  w.key("failed");
  w.value(report.ledger.failed());
  w.key("failures");
  w.begin_array();
  for (const std::string& message : report.ledger.messages()) w.value(message);
  w.end_array();
  w.key("digest");
  w.value(report.digest);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, value] : report.metrics) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("info");
  w.begin_object();
  for (const auto& [name, value] : report.info) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  w.key("build");
  write_build(w);
  w.end_object();
  std::cout << w.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    const CliArgs args(argc, argv, {"smoke", "describe"});
    if (args.get_bool("describe", false)) {
      obs::JsonWriter w;
      write_build(w);
      std::cout << w.str() << std::endl;
      return 0;
    }
    options.workload = args.get_string("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.smoke = args.get_bool("smoke", false);
    options.work_dir = args.get_string("work-dir", "");
    options.expect = args.get_string("expect", "");
    args.reject_unknown_flags();
    if (options.work_dir.empty()) {
      throw std::invalid_argument("--work-dir is required");
    }
  } catch (const std::exception& error) {
    std::cerr << "cavenet_bench: " << error.what() << "\n";
    return 2;
  }

  const FleetConfig scale_10k{"scale_10k", "aodv", options.smoke ? 200 : 10000,
                              options.smoke ? 3.0 : 2.0, 1.0, 4,
                              max_threads()};
  const FleetConfig olsr_1k{"olsr_1k", "olsr", options.smoke ? 200 : 1000,
                            options.smoke ? 6.0 : 12.0,
                            options.smoke ? 1.0 : 4.0, 1, 1};

  Report report;
  try {
    fs::remove_all(options.work_dir);
    fs::create_directories(options.work_dir);
    if (options.workload == "paper_figs") {
      run_paper_figs(options, report);
    } else if (options.workload == "scale_10k") {
      run_fleet(options, scale_10k, report);
    } else if (options.workload == "olsr_1k") {
      run_fleet(options, olsr_1k, report);
    } else if (options.workload == "serve_mixed") {
      run_serve(options, report);
    } else {
      std::cerr << "cavenet_bench: unknown --workload '" << options.workload
                << "' (paper_figs, scale_10k, olsr_1k, serve_mixed)\n";
      return 2;
    }
  } catch (const std::exception& error) {
    report.ledger.record(options.workload, {error.what()});
  }
  try {
    report.metric("peak_rss_mb", peak_rss_mb());
  } catch (const std::exception& error) {
    report.ledger.record("peak_rss_mb", {error.what()});
  }
  report.info.emplace_back("host.loop_ms", report.host.median_loop_s() * 1e3);
  print_report(options, report);
  return report.ledger.failed() == 0 && report.ledger.attempted() > 0 ? 0 : 1;
}
