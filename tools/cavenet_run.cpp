// cavenet-run — execute declarative scenario/campaign specs
// (docs/SCENARIOS.md).
//
//   cavenet-run spec.json...                 run each spec in order
//   cavenet-run --validate spec.json...      parse + validate only
//   cavenet-run --list-points spec.json      print a campaign's expansion
//   cavenet-run spec.json --jobs N           ensemble workers per spec
//                                            (each run is single-threaded;
//                                            cores go to --jobs)
//   cavenet-run spec.json --resume           trust matching checkpoints
//   cavenet-run spec.json --output-dir DIR   artifact prefix
//   cavenet-run spec.json --progress         live per-point events +
//                                            <name>.progress.jsonl
//   cavenet-run ... --progress-period SECS   heartbeat period (default 5)
//
// Exit codes: 0 success, 2 bad usage / invalid spec / failed run.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "spec/campaign.h"
#include "spec/engine.h"
#include "spec/spec.h"
#include "util/cli_args.h"

namespace {

using namespace cavenet;

int usage() {
  std::fprintf(stderr,
               "usage: cavenet-run <spec.json>... [--jobs N]\n"
               "                   [--resume] [--output-dir DIR]\n"
               "                   [--validate] [--list-points]\n"
               "                   [--progress] [--progress-period SECS]\n");
  return 2;
}

int validate(const std::vector<std::string>& paths) {
  int failures = 0;
  for (const std::string& path : paths) {
    try {
      const spec::CampaignSpec loaded = spec::load_campaign_file(path);
      std::size_t points = 0;
      if (loaded.kind == spec::SpecKind::kCampaign) {
        points = spec::expand_points(loaded).size();
      }
      std::printf("ok %s: kind %s, fingerprint %s", path.c_str(),
                  std::string(to_string(loaded.kind)).c_str(),
                  loaded.fingerprint.c_str());
      if (loaded.kind == spec::SpecKind::kCampaign) {
        std::printf(", %zu points", points);
      }
      std::printf("\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "invalid %s: %s\n", path.c_str(), e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 2;
}

int list_points(const std::string& path) {
  const spec::CampaignSpec loaded = spec::load_campaign_file(path);
  if (loaded.kind != spec::SpecKind::kCampaign) {
    std::printf("%s: kind %s has no point expansion\n", path.c_str(),
                std::string(to_string(loaded.kind)).c_str());
    return 0;
  }
  const auto points = spec::expand_points(loaded);
  std::printf("%s: %zu points (fingerprint %s)\n", path.c_str(), points.size(),
              loaded.fingerprint.c_str());
  for (const spec::CampaignPoint& point : points) {
    std::printf("  point %zu: cell %zu rep %zu seed %llu", point.index,
                point.cell, point.replication,
                static_cast<unsigned long long>(point.scenario.config.seed));
    for (const auto& [param, value] : point.axis_values) {
      std::printf(" %s=%s", param.c_str(), value.c_str());
    }
    std::printf(" -> %s\n",
                spec::point_manifest_path(loaded, point.index).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Boolean switches must not bind the following spec path as a value.
  const CliArgs args(argc, argv,
                     {"resume", "validate", "list-points", "progress"});
  spec::RunOptions options;
  options.jobs = static_cast<int>(args.get_int("jobs", 1));
  options.resume = args.get_bool("resume", false);
  options.output_dir = args.get_string("output-dir", "");
  options.progress = args.get_bool("progress", false);
  options.progress_period_s = args.get_double("progress-period", 5.0);
  const bool validate_only = args.get_bool("validate", false);
  const bool list_only = args.get_bool("list-points", false);
  const std::vector<std::string>& specs = args.positional();

  for (const std::string& flag : args.unknown_flags()) {
    std::fprintf(stderr, "%s\n", args.describe_unknown(flag).c_str());
    return 2;
  }
  if (specs.empty()) return usage();

  try {
    if (validate_only) return validate(specs);
    if (list_only) {
      for (const std::string& path : specs) {
        if (const int rc = list_points(path)) return rc;
      }
      return 0;
    }
    for (const std::string& path : specs) {
      if (const int rc = spec::run_spec_file(path, options)) return rc;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
