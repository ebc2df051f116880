// ProgressStream: campaign lifecycle events and heartbeats as JSONL.
//
// A 200-point campaign is a black box while it executes; this stream is
// the live view (and the channel a future job server will subscribe to).
// Writers emit one JSON object per line into progress.jsonl and,
// optionally, to stdout for `cavenet-run --progress`:
//
//   {"event":"campaign_started","points":200,"jobs":4,"wall_s":0}
//   {"event":"point_started","point":7,"name":"fig8/p30","wall_s":1.25}
//   {"event":"point_finished","point":7,"name":"fig8/p30","wall_s":3.75,
//    "point_wall_s":2.5,"events":812345,"events_per_wall_s":324938,
//    "finished":8,"points":200,"eta_s":480.2}
//   {"event":"heartbeat","finished":8,"running":4,"points":200,...}
//   {"event":"stall","running_for_s":61.2,...}   <- watchdog, no finish seen
//
// Progress is observability about WALL time, so this file is exactly the
// part of the stack that is allowed to be non-deterministic; nothing here
// feeds back into simulation state or manifests (wall-clock gauges are
// strip_volatile-covered). All methods are thread-safe: ensemble workers
// call point_started/point_finished concurrently.
#ifndef CAVENET_RUNNER_PROGRESS_H
#define CAVENET_RUNNER_PROGRESS_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cavenet::runner {

struct ProgressOptions {
  /// JSONL sink path; empty keeps the stream in memory only (tests, or
  /// --progress without an output directory).
  std::string path;
  /// Mirror every line to stdout (the --progress live view).
  bool echo_stdout = false;
  /// Heartbeat period in wall seconds; <= 0 disables the watchdog thread,
  /// which otherwise runs until campaign_finished() or destruction.
  double heartbeat_period_s = 5.0;
  /// A "stall" event fires when points are running but none has finished
  /// for this many wall seconds; <= 0 disables stall detection.
  double stall_after_s = 30.0;
};

class ProgressStream {
 public:
  ProgressStream(std::size_t total_points, int jobs, ProgressOptions options);
  ~ProgressStream();

  ProgressStream(const ProgressStream&) = delete;
  ProgressStream& operator=(const ProgressStream&) = delete;

  void point_started(std::size_t point, const std::string& name);
  /// `events` is the run's dispatched-event count; throughput and ETA are
  /// derived here from wall time.
  void point_finished(std::size_t point, const std::string& name,
                      std::uint64_t events);
  /// A point satisfied from checkpoints during --resume — or from the
  /// job server's result cache (no simulation either way).
  void point_resumed(std::size_t point, const std::string& name);
  /// A point whose body threw; `error` is the exception message. Failed
  /// points count toward completion so ETAs stay meaningful, and the
  /// campaign reports them (and exits non-zero) after the sweep drains.
  void point_failed(std::size_t point, const std::string& name,
                    const std::string& error);
  /// Emits the closing line and stops the watchdog (see stop_watchdog).
  void campaign_finished();
  /// Stops and joins the watchdog thread, so the stream writes no more
  /// heartbeat or stall lines; for a campaign that ends without
  /// finishing (failed or cancelled). Events still append and jsonl()
  /// stays readable. Idempotent; the destructor calls it too.
  void stop_watchdog();

  /// Emits one heartbeat line now. The watchdog thread calls this on its
  /// period; tests call it directly for deterministic coverage.
  void emit_heartbeat();

  std::size_t finished() const;
  /// Every line emitted so far (newline-terminated), for tests and for
  /// callers that keep the stream in memory.
  std::string jsonl() const;

 private:
  double wall_s_locked() const;
  void emit_locked(const std::string& line);
  void emit_heartbeat_locked();
  void watchdog_loop();

  const std::size_t total_points_;
  const int jobs_;
  const ProgressOptions options_;
  const std::chrono::steady_clock::time_point start_;

  mutable std::mutex mutex_;
  std::ofstream file_;
  std::string buffer_;
  std::size_t started_ = 0;
  std::size_t finished_ = 0;
  std::size_t resumed_ = 0;
  std::size_t failed_ = 0;
  std::uint64_t events_total_ = 0;
  double finished_wall_s_sum_ = 0.0;  ///< per-point wall times, for ETA
  std::chrono::steady_clock::time_point last_finish_;
  bool stall_flagged_ = false;
  /// Wall-clock start per in-flight point, keyed by point index. Small
  /// campaigns dominate; linear scan over <= jobs entries is fine.
  std::vector<std::pair<std::size_t, std::chrono::steady_clock::time_point>>
      running_;

  bool stop_watchdog_ = false;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;
};

}  // namespace cavenet::runner

#endif  // CAVENET_RUNNER_PROGRESS_H
