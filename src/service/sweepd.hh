/**
 * @file
 * SweepService: the crash-resilient sweep daemon's engine.
 *
 * A service instance owns a Spool (crash-safe job state machine) and
 * a ResultCache (verified, content-addressed results) and drives
 * jobs through the PR 5 ParallelExecutor in supervised batches:
 *
 *   submit  — admission control: a bounded queue sheds the
 *             lowest-priority queued job when a higher-priority one
 *             arrives, and rejects lower-priority work outright
 *             (graceful degradation instead of unbounded growth);
 *   step    — one scheduling round: serve what the cache already
 *             proves, dispatch the rest to the pool under a per-job
 *             wall cap, then commit outcomes serially in id order —
 *             success stores to the cache and advances to done/,
 *             failure is classified (ConfigError/WorkloadError are
 *             permanent -> poisoned/; InvariantError /
 *             CheckpointError / supervised exits are transient ->
 *             exponential backoff and requeue, poisoned once the
 *             retry budget is spent);
 *   recover — on construction the spool is healed (interrupted
 *             `running` jobs requeued, torn files quarantined), so
 *             kill -9 at any instant costs at most the in-flight
 *             batch's compute, never correctness.
 *
 * Determinism: job ids are assigned in submission order, batches are
 * dispatched in (priority, id) order, and outcomes commit in id
 * order, so a sweep killed and restarted any number of times
 * produces cache entries byte-identical to an uninterrupted run (the
 * chaos suite's gate). Resumable guest jobs additionally continue
 * from their newest valid auto-checkpoint instead of restarting,
 * skipping corrupt checkpoints (verified reads) transparently.
 *
 * Chaos hooks: setCrashPoint makes step() throw ServiceCrash at a
 * chosen commit-path location, simulating kill -9 at the worst
 * moments without process gymnastics; the real daemon additionally
 * drains cleanly on SIGTERM via requestStop().
 */

#ifndef G5P_SERVICE_SWEEPD_HH
#define G5P_SERVICE_SWEEPD_HH

#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/result_cache.hh"
#include "service/spool.hh"

namespace g5p::service
{

/** Daemon-level knobs. */
struct ServiceConfig
{
    /** Spool root (state dirs, cache, scratch live under it). */
    std::string spoolDir = "spool";

    /** Version tag baked into cache entries; bump to invalidate
     *  results produced by older builds. */
    std::string binaryVersion = "g5p-8";

    /** Executor width (1 = serial reference scheduling). */
    unsigned jobs = 1;

    /** Jobs dispatched per step (0 = same as jobs). */
    unsigned batch = 0;

    /** Per-job wall-clock cap in seconds (0 = uncapped); a capped
     *  job comes back as a supervised WatchdogTimeout failure and is
     *  retried, not allowed to stall the sweep. */
    double jobWallCapSeconds = 0.0;

    /** Attempts before a transiently failing job is poisoned. */
    unsigned maxAttempts = 3;

    /** First retry delay in ms, doubling per failed attempt. */
    double backoffBaseMs = 1.0;

    /** Queued-job bound for admission control (0 = unbounded). */
    std::size_t queueBound = 0;

    /** Auto-checkpoint period for resumable jobs (0 disables
     *  resume; such jobs then run like ordinary ones). */
    Tick autoCheckpointPeriod = 0;
};

/** Thrown by the chaos crash points (simulated kill -9). */
class ServiceCrash : public std::runtime_error
{
  public:
    explicit ServiceCrash(const std::string &where)
        : std::runtime_error("service crashed at " + where) {}
};

/** Commit-path locations the chaos suite can crash at. */
enum class CrashPoint
{
    None,
    AfterDispatch,  ///< jobs marked running, nothing run yet
    MidCompletion,  ///< first outcome committed, rest lost
    MidCacheWrite,  ///< cache entry stored, job not yet in done/
};

/** Cumulative service counters (the supervision gate's evidence). */
struct ServiceStats
{
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;   ///< admission refused (queue full)
    std::uint64_t shed = 0;       ///< queued job evicted for priority
    std::uint64_t dispatched = 0; ///< handed to the executor
    std::uint64_t completed = 0;  ///< reached done/
    std::uint64_t cacheServed = 0;///< completed without running
    std::uint64_t retries = 0;    ///< transient failures requeued
    std::uint64_t poisoned = 0;
    std::uint64_t resumedFromCheckpoint = 0;
    double backoffMsTotal = 0.0;  ///< backoff delay scheduled so far
};

/** What one executed job attempt produced (exposed for tests). */
struct JobOutcome
{
    bool success = false;
    /** Failure class: permanent failures poison immediately. */
    bool permanent = false;
    bool resumed = false; ///< continued from an auto-checkpoint
    std::string error;    ///< "<Kind>: <summary>" when !success
    ServiceResult result; ///< valid when success
};

/**
 * Run one spooled job attempt to an outcome. Never throws: every
 * failure — typed SimError, supervised exit, unexpected exception —
 * is folded into the outcome for the service to classify. Exposed
 * so tests can drive single attempts without a service.
 */
JobOutcome runSpooledJob(const SpoolJob &job,
                         const ServiceConfig &config,
                         const std::string &scratch_dir);

class SweepService
{
  public:
    /** Opens the spool, heals it (recover), opens the cache. */
    explicit SweepService(const ServiceConfig &config);

    Spool &spool() { return spool_; }
    const Spool &spool() const { return spool_; }
    ResultCache &cache() { return cache_; }
    const ResultCache &cache() const { return cache_; }
    const ServiceConfig &config() const { return config_; }
    const ServiceStats &stats() const { return stats_; }

    /** What construction-time recovery found/fixed. */
    const RecoveryReport &recoveryReport() const { return recovery_; }

    /**
     * Admit one job. @return its id, or 0 if admission control
     * rejected it (queue at bound and the job outranks nothing).
     */
    std::uint64_t submit(const JobSpec &spec);

    /** Expand and admit a sweep; per-job ids (0 = rejected). */
    std::vector<std::uint64_t> submitSweep(const SweepSpec &sweep);

    /**
     * Admit sweep specs clients dropped into `<spool>/incoming/`
     * (`*.json`, written via tmp+rename so never torn). Each spec is
     * expanded and admitted under admission control, then its file
     * is removed; malformed specs are renamed to `*.bad` with a
     * warning instead of wedging the daemon. @return jobs admitted.
     */
    unsigned pollIncoming();

    /**
     * One scheduling round (see file header). @return false when
     * the spool has no queued work (drained or stopping) — i.e.
     * "call me again" is true.
     */
    bool step();

    /** step() until drained or requestStop(). */
    void runUntilDrained();

    /** Ask the service to stop after the current round commits
     *  (async-signal-safe; the daemon's SIGTERM handler calls it). */
    void requestStop() { stop_.store(true); }

    /** Arm a chaos crash: the @p countdown-th time execution passes
     *  @p point, throw ServiceCrash. */
    void
    setCrashPoint(CrashPoint point, unsigned countdown = 1)
    {
        crashPoint_ = point;
        crashCountdown_ = countdown;
    }

  private:
    void crashMaybe(CrashPoint here);
    unsigned attemptBudget(const JobSpec &spec) const;

    ServiceConfig config_;
    Spool spool_;
    ResultCache cache_;
    ServiceStats stats_;
    RecoveryReport recovery_;
    std::atomic<bool> stop_{false};

    CrashPoint crashPoint_ = CrashPoint::None;
    unsigned crashCountdown_ = 0;

    /** Backoff schedule: job id -> earliest next attempt. In-memory
     *  only — after a daemon crash the backoff clock restarts, which
     *  only ever retries *sooner*. */
    std::map<std::uint64_t,
             std::chrono::steady_clock::time_point> notBefore_;
};

} // namespace g5p::service

#endif // G5P_SERVICE_SWEEPD_HH
