/**
 * @file
 * RunOptions: the one bundle of run-control knobs consumed by
 * Simulator::configure()/run() and os::System::run().
 *
 * PRs 1-3 accrued setters one at a time — a watchdog setter, an
 * auto-checkpoint enabler, a fault seed buried in
 * mem::FaultInjectorParams. This struct replaces them: build one
 * RunOptions, hand it to the simulator (or System::run), done.
 * Profiling is not run control: a caller builds a sim::Profiler and
 * hands it to Simulator::attachProfiler().
 */

#ifndef G5P_SIM_RUN_OPTIONS_HH
#define G5P_SIM_RUN_OPTIONS_HH

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

#include "base/types.hh"

namespace g5p::sim
{

/**
 * Watchdog knobs for the run loop. All limits default to off;
 * deadlock detection additionally needs an activity probe (installed
 * automatically by os::System).
 */
struct WatchdogConfig
{
    /**
     * Declare livelock after this many consecutively serviced events
     * with curTick unchanged (0 = off). Same-tick bursts are normal —
     * every CPU and cache response at one tick — so set this well
     * above the machine's per-tick event fan-out (thousands).
     */
    std::uint64_t livelockEvents = 0;

    /** Event budget for one run() call (0 = unlimited). */
    std::uint64_t maxEvents = 0;

    /** Wall-clock budget for one run() call (0 = unlimited). */
    double maxWallSeconds = 0.0;

    /** Last-N serviced events kept for the diagnostic dump. */
    std::size_t flightRecorderDepth = 64;

    auto operator<=>(const WatchdogConfig &) const = default;
};

/**
 * Retry policy for checkpoint writes (CheckpointOut::writeFile).
 * PR 3 hard-coded 3 attempts with a 1ms-doubling backoff; the sweep
 * service tightens both for fast-fail under chaos testing, so they
 * live in run control now.
 */
struct CheckpointRetryConfig
{
    /** Total write attempts before CheckpointError propagates
     *  (0 is treated as 1). */
    unsigned maxAttempts = 3;

    /** First retry delay in milliseconds, doubling per attempt
     *  (0 = retry immediately, no sleep). */
    double backoffBaseMs = 1.0;

    auto operator<=>(const CheckpointRetryConfig &) const = default;
};

/** Everything that controls how a simulation runs (not what it is). */
struct RunOptions
{
    /** Enable the watchdog with the budgets below. */
    bool supervise = false;
    WatchdogConfig watchdog;

    /** Write an automatic checkpoint every this many ticks to
     *  "<autoCheckpointPrefix>-<tick>.ckpt" (0 = off). */
    Tick autoCheckpointPeriod = 0;
    std::string autoCheckpointPrefix = "auto";

    /** Retry/backoff for every checkpoint write this simulator
     *  performs (explicit and automatic). */
    CheckpointRetryConfig checkpointRetry;

    /** Overrides mem::FaultInjectorParams::seed when nonzero, so a
     *  fault campaign is re-seeded from the run control in one place. */
    std::uint64_t faultSeed = 0;

    auto operator<=>(const RunOptions &) const = default;
};

} // namespace g5p::sim

#endif // G5P_SIM_RUN_OPTIONS_HH
