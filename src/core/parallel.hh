/**
 * @file
 * Parallel experiment harness: a worker pool running independent
 * profiled simulations concurrently across host threads.
 *
 * The paper's methodology is embarrassingly parallel (Fig. 1 alone is
 * 9 workloads x 4 CPU models x 3 platforms, and the paper co-runs up
 * to one gem5 process per hardware thread at 4.15x aggregate
 * throughput), so the harness maps one RunConfig to one job and one
 * job to one worker thread at a time.
 *
 * Isolation contract — what makes results byte-identical to serial:
 *
 *  - every job builds its own Simulator, EventQueue, HostCore,
 *    Synthesizer, and DataSpace (the HostCore runs on a pipeline
 *    thread the job owns, so a job keeps two threads busy); nothing
 *    mutable is shared between jobs (the retired process-globals —
 *    the active Recorder, the current DataSpace, the EventPool
 *    arena, the checkpoint-I/O and timing-fault hooks — are all
 *    thread-local now);
 *  - each job's RNG streams are seeded from its RunConfig alone;
 *  - the shared trace::FuncRegistry is append-only with idempotent
 *    registration and lock-free reads, and every result quantity is
 *    independent of FuncId *values* (layout addresses are assigned in
 *    per-run first-use order, code sizes/structure are keyed by
 *    function name, profiles are ranked with name tie-breaks), so it
 *    does not matter which thread registers a name first.
 *
 * Scheduling order therefore cannot leak into results.
 *
 * The one sharing hazard left is opt-in: RunConfig::profiler lets a
 * caller attach one self-profiler to several runs. A sim::Profiler
 * instance is not concurrency-safe, so configs sharing a profiler
 * must go through runExperiments with jobs == 1 (as the examples
 * do when --profile is given).
 */

#ifndef G5P_CORE_PARALLEL_HH
#define G5P_CORE_PARALLEL_HH

#include <functional>
#include <vector>

#include "core/experiment.hh"

namespace g5p::core
{

/**
 * Worker pool over independent jobs. Workers take job indices from
 * one shared cursor, so jobs start in submission order.
 */
class ParallelExecutor
{
  public:
    /** @param jobs worker threads; 0 = hardwareJobs(). */
    explicit ParallelExecutor(unsigned jobs = 0);

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /**
     * Run @p job for every index in [0, count) on the pool; blocks
     * until all finish. With one worker (or one index) the jobs run
     * inline on the calling thread, in order. The job writes its own
     * results (typically into a pre-sized vector slot at its index,
     * which needs no locking); the isolation contract applies — a
     * job must touch no mutable state shared with other jobs. Every
     * index runs even if some throw; the exception of the lowest
     * failing index is then rethrown.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &job);

    /** Worker threads this executor uses. */
    unsigned jobs() const { return jobs_; }

    /** Usable hardware concurrency (never 0). */
    static unsigned hardwareJobs();

  private:
    unsigned jobs_;
};

/**
 * The config a job capped at @p cap_seconds of host time actually
 * runs: a copy of @p config with the cap folded into its watchdog
 * (identity when @p cap_seconds is 0 or the config already runs
 * under a tighter budget). The watchdog's event budgets count
 * simulated work; this is the host-time bound a long-running sweep
 * needs.
 */
RunConfig withJobWallCap(const RunConfig &config, double cap_seconds);

/**
 * Run every config through runProfiledSimulation on a pool of
 * @p jobs workers (0 = hardwareJobs(); 1 runs them inline, in
 * order) and return results in submission order. Results are
 * byte-identical for every @p jobs. If any job throws, the
 * exception of the lowest failing index is rethrown after every job
 * has run.
 *
 * @p wall_cap_seconds bounds each job's host time (0 = unlimited;
 * see withJobWallCap): a job that exceeds it is cut short by the
 * in-simulator watchdog and comes back as a normal result with
 * exitCause == WatchdogTimeout, so one hung or pathological config
 * cannot stall or abort the sweep.
 */
std::vector<RunResult>
runExperiments(const std::vector<RunConfig> &configs, unsigned jobs,
               double wall_cap_seconds = 0.0);

} // namespace g5p::core

#endif // G5P_CORE_PARALLEL_HH
