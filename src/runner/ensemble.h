// Parallel ensemble execution: the one fan-out path across runs.
//
// Every paper figure is a Monte-Carlo ensemble (densities x trials,
// senders x protocols, seeds x replications) whose replications are
// mutually independent. runner::for_each runs them on `jobs` lanes: the
// calling thread plus min(jobs, n) - 1 std::threads, each claiming the
// next replication index from one shared counter. The observable output
// is BITWISE IDENTICAL to a serial run:
//
//  * the runner draws nothing: every caller seeds its replications from
//    its own inputs (campaign points from their expanded seed, Table-I
//    runs from config.seed, fundamental-diagram trials from
//    (seed, density, trial)), so no draw depends on the lane that ran it;
//  * each replication records into a private StatsRegistry; after every
//    lane joins, the registries are merged in replication order, which
//    reproduces exactly what sequential reuse of one shared registry
//    would have recorded;
//  * results land in an index-addressed slot, so the returned vector is
//    in replication order no matter the completion order.
//
// jobs == 1 (or n <= 1) runs inline on the calling thread through the
// very same registry/merge path, so `--jobs 1` vs `--jobs N` differ only
// in wall-clock time.
#ifndef CAVENET_RUNNER_ENSEMBLE_H
#define CAVENET_RUNNER_ENSEMBLE_H

#include <cstddef>
#include <functional>
#include <vector>

#include "obs/stats_registry.h"

namespace cavenet::runner {

/// Resolves a --jobs or --workers request: values <= 0 mean "one lane
/// per hardware thread" (never less than 1).
int resolve_jobs(int requested) noexcept;

/// Parses the standard ensemble-bench command line: `--jobs N` (N <= 0
/// resolves to the hardware thread count; default 1, the serial
/// behaviour). Throws std::invalid_argument on unknown or malformed
/// flags so typos fail loudly instead of silently running serial.
int parse_jobs_flag(int argc, const char* const* argv);

/// What a replication body receives: its index and a private stats
/// registry. The registry outlives the body call and is merged into the
/// caller's registry in index order.
struct ReplicationContext {
  std::size_t index = 0;                ///< replication id, 0..n-1
  obs::StatsRegistry* stats = nullptr;  ///< private to this replication
};

/// Runs body(ctx) once per replication 0..n-1 on resolve_jobs(jobs)
/// lanes at most, the caller included. When `merged` is non-null, the
/// per-replication registries are folded into it in replication order
/// after every lane finished. Every replication runs even when some
/// throw; the exception of the lowest-indexed failing replication is
/// then rethrown.
void for_each(std::size_t n, int jobs,
              const std::function<void(ReplicationContext&)>& body,
              obs::StatsRegistry* merged = nullptr);

/// for_each() collecting one default-constructible Result per
/// replication, returned in replication order.
template <typename Result, typename Body>
std::vector<Result> map(std::size_t n, int jobs, Body&& body,
                        obs::StatsRegistry* merged = nullptr) {
  std::vector<Result> results(n);
  for_each(
      n, jobs,
      [&results, &body](ReplicationContext& ctx) {
        results[ctx.index] = body(ctx);
      },
      merged);
  return results;
}

}  // namespace cavenet::runner

#endif  // CAVENET_RUNNER_ENSEMBLE_H
