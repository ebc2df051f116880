#include "runner/ensemble.h"

#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/cli_args.h"

namespace cavenet::runner {

int resolve_jobs(int requested) noexcept {
  return exec::resolve_workers(requested);
}

int parse_jobs_flag(int argc, const char* const* argv) {
  const CliArgs args(argc, argv);
  const auto jobs = static_cast<int>(args.get_int("jobs", 1));
  args.reject_unknown_flags();
  return resolve_jobs(jobs);
}

EnsembleRunner::EnsembleRunner(EnsembleOptions options)
    : options_(options), jobs_(resolve_jobs(options.jobs)) {
  if (options_.executor != nullptr) {
    executor_ = options_.executor;
    jobs_ = executor_->workers();
  } else if (jobs_ > 1) {
    pool_ = std::make_unique<exec::ThreadPoolExecutor>(jobs_);
    executor_ = pool_.get();
  }
}

void EnsembleRunner::for_each(
    std::size_t n, const std::function<void(ReplicationContext&)>& body,
    obs::StatsRegistry* merged) {
  if (n == 0) return;

  // Per-replication registries exist even when no merge target was given:
  // the body may rely on ctx.stats being valid.
  std::vector<std::unique_ptr<obs::StatsRegistry>> registries;
  registries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    registries.push_back(std::make_unique<obs::StatsRegistry>());
  }

  // Of all failing replications, deterministically keep the exception of
  // the lowest index — a serial run would have hit that one first. The
  // catch sits inside the lane body (not the executor's chunk-level
  // rethrow) so one failure never skips the other replications sharing
  // its chunk.
  std::mutex failure_mutex;
  std::size_t first_failed = n;
  std::exception_ptr failure;

  const Rng base(options_.master_seed, options_.rng_stream);
  executor_->parallel_for(n, 1, [&](std::size_t index) {
    try {
      ReplicationContext ctx;
      ctx.index = index;
      ctx.total = n;
      ctx.rng = base.substream(index);
      ctx.stats = registries[index].get();
      body(ctx);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (index < first_failed) {
        first_failed = index;
        failure = std::current_exception();
      }
    }
  });
  if (failure) std::rethrow_exception(failure);

  if (merged != nullptr) {
    for (const auto& registry : registries) merged->merge_from(*registry);
  }
}

}  // namespace cavenet::runner
