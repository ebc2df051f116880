#include "runner/ensemble.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "util/cli_args.h"

namespace cavenet::runner {

int resolve_jobs(int requested) noexcept {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int parse_jobs_flag(int argc, const char* const* argv) {
  const CliArgs args(argc, argv);
  const auto jobs = static_cast<int>(args.get_int("jobs", 1));
  args.reject_unknown_flags();
  return resolve_jobs(jobs);
}

void for_each(std::size_t n, int jobs,
              const std::function<void(ReplicationContext&)>& body,
              obs::StatsRegistry* merged) {
  if (n == 0) return;

  // Per-replication registries exist even when no merge target was given:
  // the body may rely on ctx.stats being valid.
  std::vector<obs::StatsRegistry> registries(n);

  // Of all failing replications, keep the exception of the lowest index —
  // a serial run would have hit that one first. The catch sits inside the
  // claim loop, so one failure never stops a lane from claiming the rest.
  std::mutex failure_mutex;
  std::size_t first_failed = n;
  std::exception_ptr failure;

  std::atomic<std::size_t> next{0};
  const auto claim_loop = [&] {
    for (std::size_t index = next.fetch_add(1); index < n;
         index = next.fetch_add(1)) {
      try {
        ReplicationContext ctx{index, &registries[index]};
        body(ctx);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (index < first_failed) {
          first_failed = index;
          failure = std::current_exception();
        }
      }
    }
  };

  {
    const std::size_t lanes =
        std::min(static_cast<std::size_t>(resolve_jobs(jobs)), n);
    std::vector<std::jthread> helpers;  // joined when the scope closes
    helpers.reserve(lanes - 1);
    for (std::size_t lane = 1; lane < lanes; ++lane) {
      helpers.emplace_back(claim_loop);
    }
    claim_loop();
  }
  if (failure) std::rethrow_exception(failure);

  if (merged != nullptr) {
    for (const obs::StatsRegistry& registry : registries) {
      merged->merge_from(registry);
    }
  }
}

}  // namespace cavenet::runner
