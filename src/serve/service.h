// JobService — the multi-tenant campaign job service (docs/SERVING.md).
//
// One service instance owns the four serve-layer pieces and wires them
// to the spec engine:
//
//   journal   crash-safe job state (replayed on start, like --resume)
//   queue     fair round-robin over each job's pending units
//   cache     content-addressed results keyed on spec fingerprints
//   workers   plain threads, each claiming units off the queue
//
// A "unit" is one campaign point (campaign kind) or the whole spec
// (figure kinds, which the engine runs as one deterministic workload).
// Workers execute units through the exact code paths cavenet-run uses
// (spec::run_campaign_point, spec::run_goodput_surface, ...), into the
// job's own output directory, so a served job's artifacts are
// byte-identical to a direct `cavenet-run --output-dir` — whether the
// unit was simulated or materialized from the cache.
//
// Everything observable is published under the `serve.*` counter
// vocabulary (docs/OBSERVABILITY.md) and each job writes the standard
// runner::ProgressStream JSONL, streamed live over `GET .../events`.
#ifndef CAVENET_SERVE_SERVICE_H
#define CAVENET_SERVE_SERVICE_H

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats_registry.h"
#include "runner/progress.h"
#include "serve/cache.h"
#include "serve/http.h"
#include "serve/journal.h"
#include "serve/queue.h"
#include "spec/campaign.h"

namespace cavenet::serve {

struct ServiceOptions {
  /// Durable root: journal.jsonl, cache/, jobs/<id>/ live here.
  std::string state_dir;
  /// Worker threads pulling units (<= 0 resolves to hardware threads).
  int workers = 2;
  /// HTTP port on 127.0.0.1; 0 binds an ephemeral port.
  int http_port = 0;
  /// Submission body cap, enforced by HTTP (413) and the JSON parser.
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  /// Nesting-depth cap for submitted spec JSON (see obs::JsonParseLimits).
  std::size_t max_json_depth = 64;
  /// Per-job progress heartbeat/stall period; <= 0 disables the watchdog
  /// (tests); the daemon uses a few seconds. Each job's watchdog thread
  /// stops when the job is done, fails or is cancelled.
  double heartbeat_period_s = 0.0;
};

/// Job lifecycle, journaled at every transition.
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

std::string_view to_string(JobState state) noexcept;

class JobService {
 public:
  /// Replays the journal (recovering interrupted jobs), starts the HTTP
  /// server and the worker threads. Throws on an unusable state dir or
  /// port.
  explicit JobService(ServiceOptions options);
  /// stop()s. Like a crash, stopping writes no terminal records: pending
  /// units are simply re-enqueued by the next replay.
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Stops accepting HTTP, shuts the queue down (in-flight units finish,
  /// pending units stay journaled-but-unrun), and joins the workers.
  void stop();

  int port() const noexcept { return http_ ? http_->port() : 0; }

  // ---- in-process API (the HTTP handlers call these; tests may too) --

  /// Validates and enqueues one spec document; returns the job id.
  /// Throws SpecError / JsonParseError on an invalid submission.
  std::string submit(const std::string& spec_text);

  /// One job's status as a JSON object (see docs/SERVING.md for the
  /// shape). Throws std::out_of_range for an unknown id.
  obs::JsonValue job_status(const std::string& job_id) const;

  /// All jobs, in submission order (replayed jobs first).
  std::vector<std::string> job_ids() const;

  /// Cancels pending units and marks the job cancelled (unless already
  /// terminal). Returns false for an unknown id. In-flight units finish
  /// and still land in the cache.
  bool cancel(const std::string& job_id);

  /// Blocks until the job reaches a terminal state; false on timeout or
  /// unknown id.
  bool wait(const std::string& job_id, double timeout_s = 60.0);

  /// Absolute output directory of a job's artifacts.
  std::string job_dir(const std::string& job_id) const;

  /// Snapshot of the serve.* metrics.
  obs::StatsSnapshot stats() const;

  /// Units recovered from the journal at startup (pending re-runs).
  std::size_t replayed_pending_units() const noexcept {
    return replayed_pending_units_;
  }

  /// The HTTP routing surface, exposed for direct handler tests.
  HttpResponse handle(const HttpRequest& request);

 private:
  struct Job {
    std::string id;
    JobState state = JobState::kQueued;
    spec::CampaignSpec spec;
    std::vector<spec::CampaignPoint> points;  ///< campaign kind only
    bool whole_spec = false;  ///< figure kinds run as one unit
    std::size_t units_total = 0;
    std::size_t units_done = 0;
    std::size_t cache_hits = 0;
    std::vector<bool> unit_done;
    std::vector<std::string> files;  ///< artifacts, relative to job dir
    std::string error;
    std::shared_ptr<runner::ProgressStream> progress;
  };

  void replay_locked();
  std::shared_ptr<Job> make_job_locked(const std::string& id,
                                       const std::string& spec_text,
                                       const std::string& source_name);
  void enqueue_pending_locked(const std::shared_ptr<Job>& job);
  void finalize_locked(const std::shared_ptr<Job>& job);
  void fail_locked(const std::shared_ptr<Job>& job, const std::string& error);
  void worker_loop();
  void execute_unit(const WorkItem& item);
  std::string job_dir_locked(const std::string& job_id) const;
  obs::JsonValue job_status_locked(const Job& job) const;

  ServiceOptions options_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<ResultCache> cache_;
  FairQueue queue_;
  std::unique_ptr<HttpServer> http_;

  mutable std::mutex mutex_;
  mutable std::condition_variable jobs_cv_;  ///< notified on terminal states
  std::vector<std::shared_ptr<Job>> jobs_;   ///< submission order
  std::size_t next_job_seq_ = 1;
  std::size_t replayed_pending_units_ = 0;
  bool stopped_ = false;

  // serve.* metrics (single-threaded registry, guarded by mutex_).
  mutable obs::StatsRegistry stats_;

  // Last: the threads use every member above; stop() joins them.
  std::vector<std::thread> workers_;
};

}  // namespace cavenet::serve

#endif  // CAVENET_SERVE_SERVICE_H
