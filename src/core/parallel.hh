/**
 * @file
 * Parallel experiment harness: a work-stealing worker pool running
 * independent profiled simulations concurrently across host threads.
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
 * Scheduling order therefore cannot leak into results; the pool is
 * free to steal aggressively.
 *
 * The one sharing hazard left is opt-in: RunConfig::profiler lets a
 * caller attach one self-profiler to several runs. A sim::Profiler
 * instance is not concurrency-safe, so configs sharing a profiler
 * must go through runExperiments with jobs <= 1 (as the examples
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
 * Work-stealing pool over runProfiledSimulation jobs.
 *
 * Jobs are dealt round-robin onto per-worker queues; a worker drains
 * its own queue from the front and, when empty, steals from the back
 * of a victim's queue. Results come back in submission order
 * regardless of completion order.
 */
class ParallelExecutor
{
  public:
    /** @param jobs worker threads; 0 = hardwareJobs(). */
    explicit ParallelExecutor(unsigned jobs = 0);

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /**
     * Run every config through runProfiledSimulation on the pool and
     * return results in submission order. Blocks until all jobs
     * finish. If any job throws, the first failure (in submission
     * order) is rethrown after every worker has drained.
     *
     * With a job wall cap set (setJobWallCap), a job that exceeds it
     * is cut short by the in-simulator watchdog and comes back as a
     * normal result with exitCause == WatchdogTimeout — one hung or
     * pathological config can no longer stall or abort the sweep.
     */
    std::vector<RunResult> run(const std::vector<RunConfig> &configs);

    /**
     * Per-job wall-clock cap in seconds applied to every config run()
     * executes (0 = none). Configs that already supervise with a
     * tighter maxWallSeconds keep their own budget; everything else
     * gets `supervise = true` with this cap. The PR 3 watchdog's
     * event budgets count simulated work — this is the host-time
     * bound a long-running sweep service actually needs.
     */
    void setJobWallCap(double seconds) { jobWallCapSeconds_ = seconds; }
    double jobWallCap() const { return jobWallCapSeconds_; }

    /**
     * Generic form: run @p job for every index in [0, count) on the
     * pool, same dealing/stealing/error policy as run(). The job
     * writes its own results (typically into a pre-sized vector slot
     * at its index, which needs no locking); the same isolation
     * contract applies — a job must touch no mutable state shared
     * with other jobs. The sampling driver runs its detailed
     * intervals through this.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &job);

    /** Worker threads this executor uses. */
    unsigned jobs() const { return jobs_; }

    /** Usable hardware concurrency (never 0). */
    static unsigned hardwareJobs();

  private:
    unsigned jobs_;
    double jobWallCapSeconds_ = 0.0;
};

/**
 * The config @p executor-capped jobs actually run: a copy of
 * @p config with the wall cap folded into its watchdog (identity
 * when @p cap_seconds is 0 or the config already runs under a
 * tighter budget). Exposed so serial and pooled paths stay
 * byte-identical under a cap.
 */
RunConfig withJobWallCap(const RunConfig &config, double cap_seconds);

/**
 * Convenience entry point for sweep loops: serial in submission
 * order when @p jobs <= 1 (the reference path, no pool involved),
 * pooled otherwise. Both paths return byte-identical results.
 * @p wall_cap_seconds bounds each job's host time (0 = unlimited);
 * see ParallelExecutor::setJobWallCap.
 */
std::vector<RunResult>
runExperiments(const std::vector<RunConfig> &configs, unsigned jobs,
               double wall_cap_seconds = 0.0);

} // namespace g5p::core

#endif // G5P_CORE_PARALLEL_HH
