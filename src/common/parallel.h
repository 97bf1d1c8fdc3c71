// Shared worker-pool plumbing for every parallel layer in the repo.
//
// Subtree parallelism inside the branch-and-bound and the diagnoser's
// outcome-table precompute both need the same skeleton: N workers (the
// calling thread plus N-1 spawned ones) pulling jobs off a shared atomic
// counter, with the first exception rethrown on the caller after the
// join. run_jobs is that skeleton, so there is exactly one audited
// implementation.
//
// Determinism discipline: jobs are claimed in index order and workers
// write results into per-job slots, so a caller that merges slots in job
// order gets the same answer for any worker count. Nothing here imposes
// that — it is a contract the callers uphold (see
// sim/diagnosis/adaptive.cpp, whose jobs write disjoint table rows).
#ifndef FPVA_COMMON_PARALLEL_H
#define FPVA_COMMON_PARALLEL_H

#include <cstddef>
#include <functional>

namespace fpva::common {

/// Maps a user-facing thread-count knob to a concrete worker count:
/// values >= 1 pass through, anything else (0 or negative) means
/// std::thread::hardware_concurrency(), clamped to at least 1.
int resolve_thread_count(int requested);

/// Workers run_jobs will actually use for `job_count` jobs after
/// resolving `thread_count`: never more workers than jobs, never zero.
/// Callers use this to size per-worker state (e.g. one BatchSimulator
/// per worker) before dispatching.
int plan_workers(int thread_count, std::size_t job_count);

/// Runs `fn(worker, job)` for every job in [0, job_count). Jobs are
/// claimed in index order off a shared atomic counter by
/// plan_workers(thread_count, job_count) workers; the calling thread is
/// worker 0 and the rest are spawned std::threads. `worker` is in
/// [0, plan_workers(...)), stable for the duration of the call, so fn
/// can keep per-worker caches. All workers are joined before returning;
/// the first exception any job threw is rethrown on the calling thread.
/// After a failure no new jobs are claimed (in-flight jobs still finish),
/// since the rethrow discards the partial results anyway.
void run_jobs(int thread_count, std::size_t job_count,
              const std::function<void(int worker, std::size_t job)>& fn);

}  // namespace fpva::common

#endif  // FPVA_COMMON_PARALLEL_H
