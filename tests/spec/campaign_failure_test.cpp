// Mid-sweep point failure semantics: the rest of the sweep still runs
// (checkpoints land), then run_campaign throws a CampaignError naming
// every offending point id — which is exactly what cavenet-run prints
// before exiting non-zero — and a --resume re-runs only the failures.
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "runner/progress.h"
#include "spec/campaign.h"
#include "spec/spec.h"

#include <gtest/gtest.h>

namespace cavenet::spec {
namespace {

namespace fs = std::filesystem;

// Same cheap 3x2 sweep as the resume test (6 points, 20 s scenario),
// optionally with per-point telemetry.
std::string campaign_json(bool telemetry) {
  return std::string(R"({
  "name": "failure_probe", "kind": "campaign",
  "scenario": {
    "seed": 11, "duration_s": 20,
    "mobility": {"lane_cells": 150, "vehicles": 12},
    "traffic": {"start_s": 5, "stop_s": 15, "sender": 3})") +
         (telemetry ? R"(,
    "obs": {"telemetry": {"period_s": 5}})"
                    : "") +
         R"(
  },
  "sweep": {
    "replications": 2,
    "axes": [{"param": "mobility.slowdown_p", "values": [0.3, 0.5, 0.7]}]
  }
})";
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing artifact " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every regular file under `dir`, keyed by relative path, with its bytes.
std::map<std::string, std::string> tree(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[fs::relative(entry.path(), dir).string()] = slurp(entry.path());
    }
  }
  return files;
}

TEST(CampaignFailureTest, FailedPointIsNamedAndTheRestStillRuns) {
  // Force exactly point 1 to fail while it writes its artifacts: plant a
  // DIRECTORY where one of its files must go — the manifest, or (with
  // telemetry on) the telemetry stream, which is written before it.
  struct Case {
    bool telemetry;
    std::string (*blocked_path)(const CampaignSpec&, std::size_t);
  };
  for (const Case& c : {Case{false, point_manifest_path},
                        Case{true, point_telemetry_path}}) {
    SCOPED_TRACE(c.telemetry ? "telemetry path blocked"
                             : "manifest path blocked");
    const CampaignSpec spec =
        parse_campaign(campaign_json(c.telemetry), "failure.json");
    const std::size_t total = expand_points(spec).size();
    ASSERT_EQ(total, 6u);

    const fs::path dir = fresh_dir("campaign_failure");
    const fs::path blocked = dir / c.blocked_path(spec, 1);
    fs::create_directories(blocked);

    CampaignOptions options;
    options.jobs = 2;
    options.output_dir = dir.string();
    runner::ProgressOptions progress_options;
    progress_options.heartbeat_period_s = 0;
    progress_options.stall_after_s = 0;
    runner::ProgressStream progress(total, options.jobs, progress_options);
    options.progress = &progress;

    try {
      run_campaign(spec, options);
      FAIL() << "expected CampaignError";
    } catch (const CampaignError& error) {
      // The message (what cavenet-run prints on stderr before exiting
      // non-zero) names the campaign and the offending point id.
      const std::string what = error.what();
      EXPECT_NE(what.find("failure_probe"), std::string::npos) << what;
      EXPECT_NE(what.find("1 of 6 points failed"), std::string::npos) << what;
      EXPECT_NE(what.find("point 1:"), std::string::npos) << what;
      ASSERT_EQ(error.failures().size(), 1u);
      EXPECT_EQ(error.failures()[0].index, 1u);
      EXPECT_FALSE(error.failures()[0].error.empty());
    }

    // The failed point left no checkpoint, every other point still
    // checkpointed, and the campaign outputs were NOT rebuilt from the
    // partial sweep.
    EXPECT_FALSE(fs::is_regular_file(dir / point_manifest_path(spec, 1)));
    for (std::size_t i = 0; i < total; ++i) {
      if (i == 1) continue;
      EXPECT_TRUE(fs::is_regular_file(dir / point_manifest_path(spec, i)))
          << "point " << i << " checkpoint missing";
    }
    EXPECT_FALSE(fs::exists(dir / spec.outputs.csv));

    // The failure is visible on the progress stream.
    const std::string events = progress.jsonl();
    EXPECT_NE(events.find("\"event\":\"point_failed\",\"point\":1"),
              std::string::npos)
        << events;

    // Unblock the path and resume: only the failed point re-runs, and the
    // tree is byte-identical to an uninterrupted campaign's.
    fs::remove_all(blocked);
    CampaignOptions resume_options;
    resume_options.jobs = 2;
    resume_options.resume = true;
    resume_options.output_dir = dir.string();
    const CampaignOutcome resumed = run_campaign(spec, resume_options);
    EXPECT_EQ(resumed.points_run, 1u);
    EXPECT_EQ(resumed.points_resumed, total - 1);

    const fs::path clean_dir = fresh_dir("campaign_failure_clean");
    CampaignOptions clean_options;
    clean_options.jobs = 1;
    clean_options.output_dir = clean_dir.string();
    run_campaign(spec, clean_options);
    EXPECT_EQ(tree(dir), tree(clean_dir));
  }
}

}  // namespace
}  // namespace cavenet::spec
