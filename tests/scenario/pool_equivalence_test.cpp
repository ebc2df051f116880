// Kernel-allocation equivalence gate: the pooled event records and
// copy-on-write packet headers must be pure allocation optimizations.
// Randomized Table-I scenarios are run and their complete observable
// output — every SenderRunResult field, the full stats-registry JSON and
// the (uid-canonicalized) ns-2 packet log — is compared against a golden
// fixture captured from the pre-pool kernel. Any behavioural drift in the
// scheduler or packet layer fails the gate byte-for-byte.
//
// Regenerate the fixture (only when a change *intentionally* alters
// simulation behaviour) from the build's tests directory with:
//   CAVENET_REGEN_GOLDEN=1 ./kernel_equivalence_tests
// (this file is the binary's only source).
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/packet_log.h"
#include "obs/stats_registry.h"
#include "scenario/run_dump.h"
#include "scenario/table1.h"
#include "util/rng.h"

#ifndef CAVENET_SOURCE_DIR
#error "CAVENET_SOURCE_DIR must be defined by the build"
#endif

namespace cavenet::scenario {
namespace {

const std::string kGoldenPath =
    std::string(CAVENET_SOURCE_DIR) + "/tests/scenario/golden_kernel_runs.txt";

/// Packet uids come from a process-global counter, so runs in different
/// processes (or after other tests) shift every uid by a constant.
/// Remapping uids to first-appearance order makes the log comparable
/// across processes while staying strict about everything else.
std::string canonicalize_uids(const std::string& log) {
  std::istringstream in(log);
  std::ostringstream out;
  std::map<std::string, std::uint64_t> remap;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> tok{std::istream_iterator<std::string>(fields),
                                 std::istream_iterator<std::string>()};
    // ns-2 line: <ev> <time> <node> <layer> --- <uid> <type> <size>
    if (tok.size() >= 6) {
      const auto [it, inserted] = remap.try_emplace(tok[5], remap.size() + 1);
      tok[5] = std::to_string(it->second);
    }
    for (std::size_t i = 0; i < tok.size(); ++i) {
      if (i > 0) out << ' ';
      out << tok[i];
    }
    out << '\n';
  }
  return out.str();
}

/// One trial's complete observable outcome, rendered to a canonical,
/// process-independent text block. Doubles are serialized as hexfloats
/// (exact — no rounding slack), the packet log as an FNV-1a hash of its
/// canonicalized text (full logs would bloat the fixture; the hash is
/// still sensitive to any single changed byte).
std::string dump_trial(int trial, const TableIConfig& config) {
  netsim::PacketLog log;
  obs::StatsRegistry stats;
  TableIConfig run_config = config;
  run_config.obs.packet_log = &log;
  run_config.obs.stats = &stats;
  const SenderRunResult r = run_table1(run_config);

  std::ostringstream ns2;
  log.write_ns2(ns2);
  const std::string canonical_log = canonicalize_uids(ns2.str());

  std::ostringstream out;
  out << "trial " << trial << " protocol " << to_string(config.protocol)
      << " vehicles " << config.vehicles << " sender " << config.sender
      << " seed " << config.seed << '\n'
      << test::dump_result(r)
      << "stats_json " << stats.snapshot().to_json() << '\n'
      << "packet_log_lines " << std::count(canonical_log.begin(),
                                           canonical_log.end(), '\n')
      << '\n'
      << "packet_log_hash " << test::fnv1a(canonical_log) << '\n';
  return out.str();
}

/// The randomized scenario shapes under the gate. Drawn from a fixed
/// meta-seed so the fixture and the checked run always agree on the
/// sweep; same spirit (and similar cost) as ChannelEquivalenceTest.
std::string dump_all_trials() {
  Rng meta(20260807);
  const Protocol protocols[] = {Protocol::kAodv, Protocol::kOlsr,
                                Protocol::kDymo, Protocol::kDsdv};
  std::string dump;
  for (int trial = 0; trial < 4; ++trial) {
    TableIConfig config;
    config.protocol = protocols[meta.uniform_int(std::int64_t{0}, 3)];
    config.vehicles = static_cast<std::int32_t>(
        meta.uniform_int(std::int64_t{10}, std::int64_t{40}));
    config.lane_cells = config.vehicles * 13;
    config.sender = static_cast<netsim::NodeId>(
        meta.uniform_int(std::int64_t{1}, config.vehicles - 1));
    config.seed = meta.uniform_int(std::uint64_t{1000});
    config.slowdown_p = meta.uniform(0.2, 0.8);
    config.duration_s = 12.0;
    config.traffic_start_s = 2.0;
    config.traffic_stop_s = 10.0;
    dump += dump_trial(trial, config);
  }
  return dump;
}

TEST(PoolEquivalenceTest, RandomizedRunsMatchGoldenFixture) {
  const std::string fresh = dump_all_trials();

  if (std::getenv("CAVENET_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << kGoldenPath;
    out << fresh;
    GTEST_SKIP() << "fixture regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.is_open())
      << "missing fixture " << kGoldenPath
      << " — run once with CAVENET_REGEN_GOLDEN=1 to create it";
  std::stringstream golden;
  golden << in.rdbuf();

  // Compare per line so a mismatch names the first drifted field rather
  // than dumping two multi-kilobyte blobs.
  std::istringstream fresh_lines(fresh);
  std::istringstream golden_lines(golden.str());
  std::string fresh_line, golden_line;
  std::size_t line_no = 0;
  while (std::getline(golden_lines, golden_line)) {
    ++line_no;
    ASSERT_TRUE(std::getline(fresh_lines, fresh_line))
        << "fresh dump ends early at fixture line " << line_no;
    EXPECT_EQ(fresh_line, golden_line) << "first divergence at fixture line "
                                       << line_no;
    if (fresh_line != golden_line) return;  // one divergence is enough
  }
  EXPECT_FALSE(std::getline(fresh_lines, fresh_line))
      << "fresh dump has extra lines beyond the fixture";
}

}  // namespace
}  // namespace cavenet::scenario
