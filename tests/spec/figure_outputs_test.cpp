// The figure kinds fail when they cannot write an output: the run throws
// a std::runtime_error naming the path, and cavenet-run exits 2 instead
// of reporting success with nothing written.
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "spec/figures.h"
#include "spec/spec.h"

#ifndef CAVENET_RUN_BINARY
#error "CAVENET_RUN_BINARY must be defined by the build"
#endif

namespace cavenet::spec {
namespace {

namespace fs = std::filesystem;

// Cheap specs; each case points one output into a missing directory.
const char kGoodputJson[] = R"({
  "name": "unwritable_goodput", "kind": "goodput_surface",
  "scenario": {
    "duration_s": 90,
    "mobility": {"lane_cells": 60, "vehicles": 4},
    "traffic": {"start_s": 5, "stop_s": 85, "sender": 1}
  },
  "outputs": )";

const char kFundamentalDiagramJson[] = R"({
  "name": "unwritable_fd", "kind": "fundamental_diagram",
  "fundamental_diagram": {"lane_cells": 50, "points": 3, "iterations": 20,
                          "trials": 2, "warmup": 0},
  "outputs": )";

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// cavenet-run's exit code on `json`, run with --output-dir `dir`.
int cavenet_run_exit_code(const std::string& json, const fs::path& dir) {
  const fs::path spec_path = dir / "spec.json";
  std::ofstream(spec_path) << json;
  const std::string command = std::string(CAVENET_RUN_BINARY) +
                              " --output-dir " + dir.string() + " " +
                              spec_path.string() + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// For the CSV and then the manifest: `run` on a spec whose output sits
/// in a missing directory throws naming that path, and cavenet-run on
/// the same spec exits 2.
template <typename Run>
void expect_unwritable_outputs_fail(const std::string& head, Run run) {
  for (const std::string key : {"csv", "manifest"}) {
    SCOPED_TRACE(key);
    const std::string json =
        head + "{\"" + key + "\": \"missing_dir/out\"}}";
    const CampaignSpec spec = parse_campaign(json, "unwritable.json");
    const fs::path dir = fresh_dir(spec.name + "_" + key);
    std::string what;
    try {
      run(spec, dir.string());
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find((dir / "missing_dir/out").string()),
              std::string::npos)
        << "error: \"" << what << "\"";
    EXPECT_EQ(cavenet_run_exit_code(json, dir), 2);
  }
}

TEST(FigureOutputsTest, GoodputSurfaceThrowsWhenAnOutputCannotBeWritten) {
  expect_unwritable_outputs_fail(
      kGoodputJson, [](const CampaignSpec& spec, const std::string& dir) {
        run_goodput_surface(spec, 1, dir);
      });
}

TEST(FigureOutputsTest,
     FundamentalDiagramThrowsWhenAnOutputCannotBeWritten) {
  expect_unwritable_outputs_fail(
      kFundamentalDiagramJson,
      [](const CampaignSpec& spec, const std::string& dir) {
        run_fundamental_diagram(spec, 1, dir);
      });
}

}  // namespace
}  // namespace cavenet::spec
