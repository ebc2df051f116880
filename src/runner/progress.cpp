#include "runner/progress.h"

#include <cstdio>
#include <iostream>

#include "obs/json.h"

namespace cavenet::runner {

namespace {

/// Seconds with fixed millisecond precision, pre-rendered: progress
/// lines are for humans and log scrapers, not for byte-determinism
/// (which wall time breaks anyway), and JsonWriter's %.17g would turn
/// 0.004 into 17 digits of binary-fraction noise.
std::string wall_json(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", seconds);
  return buf;
}

}  // namespace

ProgressStream::ProgressStream(std::size_t total_points, int jobs,
                               ProgressOptions options)
    : total_points_(total_points),
      jobs_(jobs),
      options_(std::move(options)),
      start_(std::chrono::steady_clock::now()),
      last_finish_(start_) {
  if (!options_.path.empty()) {
    file_.open(options_.path, std::ios::binary | std::ios::trunc);
    if (!file_) {
      std::fprintf(stderr, "progress: cannot write %s\n",
                   options_.path.c_str());
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    obs::JsonWriter w;
    w.begin_object();
    w.key("event");
    w.value("campaign_started");
    w.key("points");
    w.value(static_cast<std::uint64_t>(total_points_));
    w.key("jobs");
    w.value(static_cast<std::int64_t>(jobs_));
    w.key("wall_s");
    w.raw(wall_json(0.0));
    w.end_object();
    emit_locked(w.str());
  }
  if (options_.heartbeat_period_s > 0.0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

ProgressStream::~ProgressStream() { stop_watchdog(); }

void ProgressStream::stop_watchdog() {
  std::thread watchdog;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_watchdog_ = true;
    watchdog = std::move(watchdog_);
  }
  // Joined without the lock: the watchdog needs it to see the stop flag.
  watchdog_cv_.notify_all();
  if (watchdog.joinable()) watchdog.join();
}

double ProgressStream::wall_s_locked() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void ProgressStream::emit_locked(const std::string& line) {
  buffer_ += line;
  buffer_ += '\n';
  if (file_.is_open()) {
    file_ << line << '\n';
    file_.flush();  // the stream is a liveness signal; buffering defeats it
  }
  if (options_.echo_stdout) {
    std::cout << line << '\n' << std::flush;
  }
}

void ProgressStream::point_started(std::size_t point, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++started_;
  running_.emplace_back(point, std::chrono::steady_clock::now());
  obs::JsonWriter w;
  w.begin_object();
  w.key("event");
  w.value("point_started");
  w.key("point");
  w.value(static_cast<std::uint64_t>(point));
  w.key("name");
  w.value(name);
  w.key("wall_s");
  w.raw(wall_json(wall_s_locked()));
  w.end_object();
  emit_locked(w.str());
}

void ProgressStream::point_finished(std::size_t point, const std::string& name,
                                    std::uint64_t events) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  double point_wall_s = 0.0;
  for (auto it = running_.begin(); it != running_.end(); ++it) {
    if (it->first == point) {
      point_wall_s = std::chrono::duration<double>(now - it->second).count();
      running_.erase(it);
      break;
    }
  }
  ++finished_;
  events_total_ += events;
  finished_wall_s_sum_ += point_wall_s;
  last_finish_ = now;
  stall_flagged_ = false;

  // ETA: mean finished-point wall time scaled by what's left, shrunk by
  // the worker count actually observed running.
  const std::size_t remaining = total_points_ - finished_ - resumed_;
  const double mean_wall =
      finished_ > 0 ? finished_wall_s_sum_ / static_cast<double>(finished_)
                    : 0.0;
  const int lanes = jobs_ > 0 ? jobs_ : 1;
  const double eta_s =
      mean_wall * static_cast<double>(remaining) / static_cast<double>(lanes);

  obs::JsonWriter w;
  w.begin_object();
  w.key("event");
  w.value("point_finished");
  w.key("point");
  w.value(static_cast<std::uint64_t>(point));
  w.key("name");
  w.value(name);
  w.key("wall_s");
  w.raw(wall_json(wall_s_locked()));
  w.key("point_wall_s");
  w.raw(wall_json(point_wall_s));
  w.key("events");
  w.value(events);
  w.key("events_per_wall_s");
  w.raw(wall_json(point_wall_s > 0.0
                      ? static_cast<double>(events) / point_wall_s
                      : 0.0));
  w.key("finished");
  w.value(static_cast<std::uint64_t>(finished_ + resumed_));
  w.key("points");
  w.value(static_cast<std::uint64_t>(total_points_));
  w.key("eta_s");
  w.raw(wall_json(eta_s));
  w.end_object();
  emit_locked(w.str());
}

void ProgressStream::point_resumed(std::size_t point, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++resumed_;
  obs::JsonWriter w;
  w.begin_object();
  w.key("event");
  w.value("point_resumed");
  w.key("point");
  w.value(static_cast<std::uint64_t>(point));
  w.key("name");
  w.value(name);
  w.key("finished");
  w.value(static_cast<std::uint64_t>(finished_ + resumed_));
  w.key("points");
  w.value(static_cast<std::uint64_t>(total_points_));
  w.key("wall_s");
  w.raw(wall_json(wall_s_locked()));
  w.end_object();
  emit_locked(w.str());
}

void ProgressStream::point_failed(std::size_t point, const std::string& name,
                                  const std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  for (auto it = running_.begin(); it != running_.end(); ++it) {
    if (it->first == point) {
      running_.erase(it);
      break;
    }
  }
  ++failed_;
  last_finish_ = now;  // the pool made progress; don't flag a stall
  stall_flagged_ = false;
  obs::JsonWriter w;
  w.begin_object();
  w.key("event");
  w.value("point_failed");
  w.key("point");
  w.value(static_cast<std::uint64_t>(point));
  w.key("name");
  w.value(name);
  w.key("error");
  w.value(error);
  w.key("failed");
  w.value(static_cast<std::uint64_t>(failed_));
  w.key("finished");
  w.value(static_cast<std::uint64_t>(finished_ + resumed_));
  w.key("points");
  w.value(static_cast<std::uint64_t>(total_points_));
  w.key("wall_s");
  w.raw(wall_json(wall_s_locked()));
  w.end_object();
  emit_locked(w.str());
}

void ProgressStream::campaign_finished() {
  std::unique_lock<std::mutex> lock(mutex_);
  obs::JsonWriter w;
  w.begin_object();
  w.key("event");
  w.value("campaign_finished");
  w.key("finished");
  w.value(static_cast<std::uint64_t>(finished_ + resumed_));
  w.key("points");
  w.value(static_cast<std::uint64_t>(total_points_));
  w.key("events");
  w.value(events_total_);
  w.key("wall_s");
  w.raw(wall_json(wall_s_locked()));
  w.end_object();
  emit_locked(w.str());
  lock.unlock();
  stop_watchdog();
}

void ProgressStream::emit_heartbeat_locked() {
  obs::JsonWriter w;
  w.begin_object();
  w.key("event");
  w.value("heartbeat");
  w.key("finished");
  w.value(static_cast<std::uint64_t>(finished_ + resumed_));
  w.key("running");
  w.value(static_cast<std::uint64_t>(running_.size()));
  w.key("points");
  w.value(static_cast<std::uint64_t>(total_points_));
  w.key("events");
  w.value(events_total_);
  w.key("wall_s");
  w.raw(wall_json(wall_s_locked()));
  w.end_object();
  emit_locked(w.str());
}

void ProgressStream::emit_heartbeat() {
  std::lock_guard<std::mutex> lock(mutex_);
  emit_heartbeat_locked();
}

void ProgressStream::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_watchdog_) {
    watchdog_cv_.wait_for(
        lock, std::chrono::duration<double>(options_.heartbeat_period_s),
        [this] { return stop_watchdog_; });
    if (stop_watchdog_) return;
    emit_heartbeat_locked();
    if (options_.stall_after_s > 0.0 && !running_.empty() && !stall_flagged_) {
      const double since_finish =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        last_finish_)
              .count();
      if (since_finish >= options_.stall_after_s) {
        stall_flagged_ = true;  // once per stall; a finish re-arms it
        obs::JsonWriter w;
        w.begin_object();
        w.key("event");
        w.value("stall");
        w.key("running");
        w.value(static_cast<std::uint64_t>(running_.size()));
        w.key("running_for_s");
        w.raw(wall_json(since_finish));
        w.key("finished");
        w.value(static_cast<std::uint64_t>(finished_ + resumed_));
        w.key("points");
        w.value(static_cast<std::uint64_t>(total_points_));
        w.key("wall_s");
        w.raw(wall_json(wall_s_locked()));
        w.end_object();
        emit_locked(w.str());
      }
    }
  }
}

std::size_t ProgressStream::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_ + resumed_;
}

std::string ProgressStream::jsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_;
}

}  // namespace cavenet::runner
