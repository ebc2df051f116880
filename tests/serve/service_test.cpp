// JobService end-to-end, against real (small) simulations:
//
//  * a served campaign's artifacts are byte-identical to a direct
//    run_campaign, at 1 worker and at several workers;
//  * a resubmitted spec is a 100% cache hit that still serves
//    byte-identical artifacts;
//  * crash recovery: restarting on the on-disk state a kill after two
//    finished units leaves re-runs ONLY the unfinished units: nothing is
//    simulated twice, no result is lost, and the final outputs
//    byte-match;
//  * a unit whose cache store throws fails its job, not the service;
//  * a done or cancelled job's progress watchdog stops writing;
//  * a spec whose outputs or name could leave the job directory is
//    rejected before anything is journaled;
//  * the HTTP surface (submit / status / results / events / cancel)
//    over real sockets.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "serve/cache.h"
#include "serve/service.h"
#include "spec/campaign.h"
#include "spec/spec.h"

#include <gtest/gtest.h>

namespace cavenet::serve {
namespace {

namespace fs = std::filesystem;

// The cheap 3x2 campaign the resume/failure tests also use (6 points).
const char kCampaignJson[] = R"({
  "name": "serve_probe", "kind": "campaign",
  "scenario": {
    "seed": 11, "duration_s": 20,
    "mobility": {"lane_cells": 150, "vehicles": 12},
    "traffic": {"start_s": 5, "stop_s": 15, "sender": 3}
  },
  "sweep": {
    "replications": 2,
    "axes": [{"param": "mobility.slowdown_p", "values": [0.3, 0.5, 0.7]}]
  }
})";

// A second tenant's distinct (also cheap) campaign: 2 points.
const char kOtherJson[] = R"({
  "name": "other_tenant", "kind": "campaign",
  "scenario": {
    "seed": 7, "duration_s": 20,
    "mobility": {"lane_cells": 150, "vehicles": 12},
    "traffic": {"start_s": 5, "stop_s": 15, "sender": 3}
  },
  "sweep": {
    "replications": 2,
    "axes": [{"param": "mobility.slowdown_p", "values": [0.5]}]
  }
})";

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

ServiceOptions base_options(const fs::path& state_dir, int workers) {
  ServiceOptions options;
  options.state_dir = state_dir.string();
  options.workers = workers;
  options.heartbeat_period_s = 0;  // no watchdog noise in tests
  return options;
}

/// Runs the reference campaign directly (jobs=1) into `dir`.
void run_direct(const char* json, const fs::path& dir) {
  const spec::CampaignSpec spec = spec::parse_campaign(json, "direct.json");
  spec::CampaignOptions options;
  options.jobs = 1;
  options.output_dir = dir.string();
  spec::run_campaign(spec, options);
}

void expect_job_matches_direct(JobService& service, const std::string& job_id,
                               const char* json, const fs::path& direct_dir) {
  const spec::CampaignSpec spec = spec::parse_campaign(json, "direct.json");
  const std::size_t total = spec::expand_points(spec).size();
  const fs::path job_dir = service.job_dir(job_id);
  for (std::size_t i = 0; i < total; ++i) {
    const std::string name = spec::point_manifest_path(spec, i);
    EXPECT_EQ(slurp(job_dir / name), slurp(direct_dir / name)) << name;
  }
  EXPECT_EQ(slurp(job_dir / spec.outputs.csv),
            slurp(direct_dir / spec.outputs.csv));
  EXPECT_EQ(slurp(job_dir / spec.outputs.manifest),
            slurp(direct_dir / spec.outputs.manifest));
}

TEST(JobServiceTest, ServedCampaignMatchesDirectRunByteForByte) {
  const fs::path direct_dir = fresh_dir("serve_direct");
  run_direct(kCampaignJson, direct_dir);

  // workers=1 and workers=3 must both serve bytes identical to jobs=1.
  for (const int workers : {1, 3}) {
    const fs::path state =
        fresh_dir("serve_equiv_w" + std::to_string(workers));
    JobService service(base_options(state, workers));
    const std::string job = service.submit(kCampaignJson);
    ASSERT_TRUE(service.wait(job, 120.0)) << "workers=" << workers;

    const obs::JsonValue status = service.job_status(job);
    EXPECT_EQ(status.find("state")->string, "done");
    EXPECT_EQ(status.find("units_done")->number, 6.0);
    EXPECT_EQ(status.find("cache_hits")->number, 0.0);
    expect_job_matches_direct(service, job, kCampaignJson, direct_dir);
    service.stop();
  }
}

TEST(JobServiceTest, ResubmissionIsAFullCacheHitWithIdenticalBytes) {
  const fs::path direct_dir = fresh_dir("serve_warm_direct");
  run_direct(kCampaignJson, direct_dir);

  const fs::path state = fresh_dir("serve_warm");
  JobService service(base_options(state, 2));
  const std::string cold = service.submit(kCampaignJson);
  ASSERT_TRUE(service.wait(cold, 120.0));
  const std::uint64_t executed_cold =
      service.stats().counter("serve.units.executed");
  EXPECT_EQ(executed_cold, 6u);

  // Same document, different formatting: same canonical fingerprint,
  // so every unit must come from the cache.
  std::string spaced(kCampaignJson);
  spaced += "\n\n";
  const std::string warm = service.submit(spaced);
  ASSERT_TRUE(service.wait(warm, 120.0));

  const obs::JsonValue status = service.job_status(warm);
  EXPECT_EQ(status.find("state")->string, "done");
  EXPECT_EQ(status.find("cache_hits")->number, 6.0);
  EXPECT_EQ(service.stats().counter("serve.units.executed"), executed_cold)
      << "warm submission must not simulate";
  EXPECT_GE(service.stats().counter("serve.cache.hits"), 6u);
  expect_job_matches_direct(service, warm, kCampaignJson, direct_dir);
  service.stop();
}

/// Rewinds a finished job's state dir to a crash right after its
/// `kept`-th point_done append: the journal is cut after that record (as
/// journal_test cuts it), and every later unit's cache entry and
/// artifacts — plus the campaign outputs finalization wrote — are
/// deleted. The result is exactly what a kill at that moment leaves on
/// disk, with no race on when the kill lands.
void rewind_to_crash_after_units(const fs::path& state,
                                 const fs::path& job_dir, std::size_t kept) {
  const fs::path journal = state / "journal.jsonl";
  std::istringstream lines(slurp(journal));
  ResultCache cache((state / "cache").string());
  std::string prefix;
  std::string fingerprint;
  std::vector<std::string> kept_files{"spec.json"};
  std::vector<std::string> dropped_files;
  std::size_t done = 0;
  std::string line;
  while (std::getline(lines, line)) {
    const obs::JsonValue record = obs::parse_json(line);
    const std::string& kind = record.find("record")->string;
    if (kind == "job_submitted") {
      fingerprint = record.find("fingerprint")->string;
    }
    const bool cut = done >= kept;
    if (!cut) prefix += line + '\n';
    if (kind == "point_done") {
      ++done;
      if (cut) {
        const auto unit =
            static_cast<std::size_t>(record.find("unit")->number);
        cache.evict(unit_cache_key(fingerprint, false, unit));
      }
    }
    if (const obs::JsonValue* files = record.find("files")) {
      for (const obs::JsonValue& file : files->array) {
        (cut ? dropped_files : kept_files).push_back(file.string);
      }
    }
  }
  ASSERT_GT(done, kept) << "the journal must hold units past the cut";
  std::ofstream(journal, std::ios::binary | std::ios::trunc) << prefix;
  for (const std::string& file : dropped_files) {
    if (std::find(kept_files.begin(), kept_files.end(), file) ==
        kept_files.end()) {
      fs::remove(job_dir / file);
    }
  }
}

TEST(JobServiceTest, CrashMidCampaignRecoversWithoutDoubleSimulation) {
  const fs::path direct_dir = fresh_dir("serve_crash_direct");
  run_direct(kCampaignJson, direct_dir);

  // First life: run the campaign, then rewind its on-disk state to a
  // crash after two of the six units finished.
  const fs::path state = fresh_dir("serve_crash");
  const std::uint64_t executed_before = 2;
  std::string job;
  fs::path job_dir;
  {
    JobService service(base_options(state, 1));
    job = service.submit(kCampaignJson);
    ASSERT_TRUE(service.wait(job, 120.0));
    job_dir = service.job_dir(job);
    service.stop();
  }
  rewind_to_crash_after_units(state, job_dir, executed_before);

  // Restart on the same state dir: only the unfinished units run.
  JobService service(base_options(state, 1));
  EXPECT_EQ(service.replayed_pending_units(), 4u);
  ASSERT_TRUE(service.wait(job, 120.0));
  const obs::JsonValue status = service.job_status(job);
  EXPECT_EQ(status.find("state")->string, "done");
  EXPECT_EQ(status.find("units_done")->number, 6.0);

  // No double simulation: units executed across both lives, plus any
  // replay cache hits, must cover each point exactly once.
  const std::uint64_t executed_after =
      service.stats().counter("serve.units.executed");
  const std::uint64_t replay_hits = service.stats().counter("serve.cache.hits");
  EXPECT_GE(executed_after, 1u) << "the second life must simulate";
  EXPECT_EQ(executed_before + executed_after + replay_hits, 6u)
      << "first life " << executed_before << ", second life "
      << executed_after << ", cache hits " << replay_hits;

  // No result lost: the finished artifacts byte-match a direct run.
  expect_job_matches_direct(service, job, kCampaignJson, direct_dir);
  service.stop();
}

TEST(JobServiceTest, TwoTenantsBothCompleteAndInterleave) {
  const fs::path direct_a = fresh_dir("serve_mt_direct_a");
  run_direct(kCampaignJson, direct_a);
  const fs::path direct_b = fresh_dir("serve_mt_direct_b");
  run_direct(kOtherJson, direct_b);

  const fs::path state = fresh_dir("serve_mt");
  JobService service(base_options(state, 2));
  const std::string big = service.submit(kCampaignJson);
  const std::string small = service.submit(kOtherJson);
  ASSERT_TRUE(service.wait(big, 120.0));
  ASSERT_TRUE(service.wait(small, 120.0));
  EXPECT_EQ(service.job_status(big).find("state")->string, "done");
  EXPECT_EQ(service.job_status(small).find("state")->string, "done");
  expect_job_matches_direct(service, big, kCampaignJson, direct_a);
  expect_job_matches_direct(service, small, kOtherJson, direct_b);
  service.stop();
}

TEST(JobServiceTest, InvalidSubmissionsAreRejectedUpFront) {
  const fs::path state = fresh_dir("serve_invalid");
  ServiceOptions options = base_options(state, 1);
  options.max_json_depth = 8;
  JobService service(options);
  EXPECT_THROW(service.submit("{not json"), obs::JsonParseError);
  EXPECT_THROW(service.submit(R"({"name": "x", "kind": "nope"})"),
               spec::SpecError);
  // Depth bomb bounces off the configured parse limit.
  std::string bomb = R"({"name": "x", "kind": "campaign", "scenario": )";
  bomb += std::string(32, '[') + "1" + std::string(32, ']') + "}";
  EXPECT_THROW(service.submit(bomb), obs::JsonParseError);
  EXPECT_TRUE(service.job_ids().empty()) << "rejected submissions journaled";
  service.stop();
}

/// Every file under `root` outside `<root>/state/jobs`, with its bytes.
std::map<std::string, std::string> files_outside_jobs(const fs::path& root) {
  const std::string jobs = (root / "state" / "jobs").string();
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    const std::string path = entry.path().string();
    if (entry.is_regular_file() && path.rfind(jobs, 0) != 0) {
      files[path] = slurp(entry.path());
    }
  }
  return files;
}

TEST(JobServiceTest, SpecPathsStayInsideTheJobDirectory) {
  // A job writes into <state>/jobs/<id>; a spec whose outputs or name
  // could leave that directory is rejected before anything is journaled.
  const fs::path root = fresh_dir("serve_spec_paths");
  const fs::path state = root / "state";
  JobService service(base_options(state, 1));
  const auto before = files_outside_jobs(root);
  const std::string escapes[] = {
      R"({"name": "g", "kind": "goodput_surface",
          "scenario": {"duration_s": 90,
                       "mobility": {"lane_cells": 60, "vehicles": 4},
                       "traffic": {"start_s": 5, "stop_s": 85, "sender": 1}},
          "outputs": {"csv": "../../journal.jsonl"}})",
      R"({"name": "f", "kind": "fundamental_diagram",
          "fundamental_diagram": {"lane_cells": 50, "points": 3,
                                  "iterations": 20, "trials": 2},
          "outputs": {"manifest": ")" +
          (root / "f.manifest.json").string() + R"("}})",
      R"({"name": "../esc_name", "kind": "campaign",
          "scenario": {"duration_s": 20,
                       "mobility": {"lane_cells": 150, "vehicles": 12},
                       "traffic": {"start_s": 5, "stop_s": 15, "sender": 3}}})",
  };
  for (const std::string& json : escapes) {
    EXPECT_THROW(service.submit(json), spec::SpecError) << json;
  }
  EXPECT_TRUE(service.job_ids().empty()) << "rejected submissions journaled";
  service.stop();
  EXPECT_EQ(files_outside_jobs(root), before);
}

TEST(JobServiceTest, CacheStoreFailureFailsTheJobNotTheService) {
  const fs::path state = fresh_dir("serve_store_failure");
  JobService service(base_options(state, 2));
  // Every store stages under <state>/cache/tmp; a regular file in its
  // place makes each one throw after the unit has simulated.
  const fs::path stage = state / "cache" / "tmp";
  fs::remove_all(stage);
  std::ofstream(stage) << "not a directory";

  const std::string job = service.submit(kOtherJson);
  ASSERT_TRUE(service.wait(job, 60.0));
  const obs::JsonValue status = service.job_status(job);
  EXPECT_EQ(status.find("state")->string, "failed");
  const obs::JsonValue* error = status.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->string.find("(other_tenant["), std::string::npos)
      << error->string;

  // The workers survived: the service still validates submissions.
  EXPECT_THROW(service.submit("{not json"), obs::JsonParseError);
  service.stop();
}

TEST(JobServiceTest, CancelDropsPendingUnits) {
  const fs::path state = fresh_dir("serve_cancel");
  JobService service(base_options(state, 1));
  const std::string job = service.submit(kCampaignJson);
  ASSERT_TRUE(service.cancel(job));
  ASSERT_TRUE(service.wait(job, 30.0));
  const obs::JsonValue status = service.job_status(job);
  EXPECT_EQ(status.find("state")->string, "cancelled");
  EXPECT_LT(status.find("units_done")->number, 6.0);
  EXPECT_FALSE(service.cancel("j999"));
  service.stop();

  // Cancellation is durable: a restart replays the job as cancelled and
  // re-enqueues nothing for it.
  JobService restarted(base_options(state, 1));
  EXPECT_EQ(restarted.job_status(job).find("state")->string, "cancelled");
  EXPECT_EQ(restarted.replayed_pending_units(), 0u);
  restarted.stop();
}

TEST(JobServiceTest, ProgressWatchdogStopsWhenTheJobEnds) {
  // With a live watchdog, a job's progress.jsonl must stop growing once
  // the job is done or cancelled: the daemon keeps every job, so a
  // watchdog that outlived its job would beat for the daemon's lifetime.
  const fs::path state = fresh_dir("serve_watchdog");
  ServiceOptions options = base_options(state, 1);
  options.heartbeat_period_s = 0.01;
  JobService service(options);
  const std::string done = service.submit(kOtherJson);
  ASSERT_TRUE(service.wait(done, 60.0));
  EXPECT_EQ(service.job_status(done).find("state")->string, "done");
  const std::string cancelled = service.submit(kCampaignJson);
  ASSERT_TRUE(service.cancel(cancelled));
  service.stop();  // an in-flight unit of the cancelled job lands first

  const std::vector<std::string> jobs{done, cancelled};
  std::vector<std::string> before;
  for (const std::string& job : jobs) {
    before.push_back(slurp(fs::path(service.job_dir(job)) / "progress.jsonl"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(slurp(fs::path(service.job_dir(jobs[i])) / "progress.jsonl"),
              before[i])
        << jobs[i];
  }
}

TEST(JobServiceTest, HttpSurfaceEndToEnd) {
  const fs::path direct_dir = fresh_dir("serve_http_direct");
  run_direct(kOtherJson, direct_dir);

  const fs::path state = fresh_dir("serve_http");
  JobService service(base_options(state, 2));
  ASSERT_GT(service.port(), 0);

  // Submit over the wire.
  const HttpClientResponse submitted =
      http_request(service.port(), "POST", "/v1/jobs", kOtherJson);
  ASSERT_EQ(submitted.status, 201) << submitted.body;
  const obs::JsonValue accepted = obs::parse_json(submitted.body);
  const std::string job = accepted.find("job")->string;
  ASSERT_TRUE(service.wait(job, 120.0));

  // Status + listing.
  const HttpClientResponse status =
      http_request(service.port(), "GET", "/v1/jobs/" + job);
  EXPECT_EQ(status.status, 200);
  EXPECT_EQ(obs::parse_json(status.body).find("state")->string, "done");
  const HttpClientResponse listing =
      http_request(service.port(), "GET", "/v1/jobs");
  EXPECT_EQ(obs::parse_json(listing.body).find("jobs")->array.size(), 1u);

  // Results listing, then artifact bytes == direct run bytes.
  const HttpClientResponse results =
      http_request(service.port(), "GET", "/v1/jobs/" + job + "/results");
  ASSERT_EQ(results.status, 200);
  const obs::JsonValue files = *obs::parse_json(results.body).find("files");
  ASSERT_GT(files.array.size(), 0u);
  for (const obs::JsonValue& file : files.array) {
    const std::string name = file.find("name")->string;
    const HttpClientResponse artifact = http_request(
        service.port(), "GET", "/v1/jobs/" + job + "/results/" + name);
    ASSERT_EQ(artifact.status, 200) << name;
    EXPECT_EQ(artifact.body, slurp(direct_dir / name)) << name;
  }

  // Whitelist: traversal names and unknown artifacts are 404.
  EXPECT_EQ(http_request(service.port(), "GET",
                         "/v1/jobs/" + job + "/results/no_such_file.csv")
                .status,
            404);
  EXPECT_EQ(http_request(service.port(), "GET",
                         "/v1/jobs/" + job + "/results/../../journal.jsonl")
                .status,
            404);

  // Events: the completed job's progress JSONL streams back chunked.
  const HttpClientResponse events =
      http_request(service.port(), "GET", "/v1/jobs/" + job + "/events");
  EXPECT_EQ(events.status, 200);
  EXPECT_NE(events.body.find("\"event\":\"campaign_started\""),
            std::string::npos);
  EXPECT_NE(events.body.find("\"event\":\"campaign_finished\""),
            std::string::npos);

  // Unknown routes and invalid submissions map to 4xx.
  EXPECT_EQ(http_request(service.port(), "GET", "/v1/nope").status, 404);
  EXPECT_EQ(http_request(service.port(), "GET", "/v1/jobs/j999").status, 404);
  EXPECT_EQ(
      http_request(service.port(), "POST", "/v1/jobs", "{broken").status, 422);

  // Stats expose the serve.* vocabulary.
  const HttpClientResponse stats =
      http_request(service.port(), "GET", "/v1/stats");
  const obs::StatsSnapshot snapshot =
      obs::StatsSnapshot::from_json(stats.body);
  EXPECT_EQ(snapshot.counter("serve.jobs.done"), 1u);
  EXPECT_EQ(snapshot.counter("serve.cache.misses"), 2u);
  service.stop();
}

}  // namespace
}  // namespace cavenet::serve
