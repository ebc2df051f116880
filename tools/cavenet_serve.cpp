// cavenet-serve — the multi-tenant campaign job service daemon
// (docs/SERVING.md).
//
//   cavenet-serve --state-dir DIR            durable root (required):
//                                            journal, cache, job outputs
//   cavenet-serve ... --port N               HTTP port on 127.0.0.1
//                                            (default 0 = ephemeral; the
//                                            bound port is printed)
//   cavenet-serve ... --workers N            worker threads (default 2,
//                                            <= 0 = hardware threads)
//   cavenet-serve ... --max-body-bytes N     submission size cap
//   cavenet-serve ... --max-json-depth N     spec JSON nesting cap
//   cavenet-serve ... --heartbeat SECS       per-job progress heartbeat
//                                            (default 5; <= 0 disables)
//
// On start the daemon replays <state-dir>/journal.jsonl and re-enqueues
// every unfinished unit of every interrupted job — kill -9 loses at most
// the units that were mid-flight, and nothing completed is ever
// simulated twice. SIGINT/SIGTERM stop cleanly (identical on-disk state
// to a crash: the journal is the recovery story either way).
//
// Exit codes: 0 clean stop, 2 bad usage / startup failure.
#include <csignal>
#include <cstdio>
#include <exception>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "serve/service.h"
#include "util/cli_args.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

int usage() {
  std::fprintf(stderr,
               "usage: cavenet-serve --state-dir DIR [--port N]\n"
               "                     [--workers N] [--max-body-bytes N]\n"
               "                     [--max-json-depth N] [--heartbeat SECS]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cavenet;

  const CliArgs args(argc, argv, {});
  serve::ServiceOptions options;
  options.state_dir = args.get_string("state-dir", "");
  options.http_port = static_cast<int>(args.get_int("port", 0));
  options.workers = static_cast<int>(args.get_int("workers", 2));
  options.max_body_bytes =
      static_cast<std::size_t>(args.get_int("max-body-bytes", 8 * 1024 * 1024));
  options.max_json_depth =
      static_cast<std::size_t>(args.get_int("max-json-depth", 64));
  options.heartbeat_period_s = args.get_double("heartbeat", 5.0);

  for (const std::string& flag : args.unknown_flags()) {
    std::fprintf(stderr, "%s\n", args.describe_unknown(flag).c_str());
    return 2;
  }
  if (options.state_dir.empty() || !args.positional().empty()) return usage();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    serve::JobService service(options);
    if (service.replayed_pending_units() > 0) {
      std::printf("replayed %zu pending units from the journal\n",
                  service.replayed_pending_units());
    }
    // The smoke gate (tools/serve_smoke.py) scrapes this line for the
    // ephemeral port; keep the format stable.
    std::printf("cavenet-serve listening on 127.0.0.1:%d\n", service.port());
    std::fflush(stdout);
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("cavenet-serve stopping\n");
    service.stop();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cavenet-serve: %s\n", error.what());
    return 2;
  }
  return 0;
}
