/**
 * @file
 * Simulator: the root object owning the event queue and the SimObject
 * list; runs the main simulation loop (gem5's simulate()).
 */

#ifndef G5P_SIM_SIMULATOR_HH
#define G5P_SIM_SIMULATOR_HH

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/eventq.hh"
#include "sim/run_options.hh"
#include "sim/serialize.hh"
#include "sim/stats.hh"

namespace g5p::sim
{

class SimObject;

/** Why the simulation loop returned. */
enum class ExitCause
{
    Finished,       ///< a workload/exit event fired
    TickLimit,      ///< the caller's tick limit was reached
    EventQueueEmpty,///< nothing left to do
    User,           ///< user-requested exit (m5 exit equivalent)
    Deadlock,       ///< queue empty but the machine expects progress
    Livelock,       ///< events serviced but curTick stopped advancing
    WatchdogTimeout,///< wall-clock or event budget exhausted
};

/** Human-readable exit-cause name. */
const char *exitCauseName(ExitCause cause);

/** True for the supervision causes (Deadlock/Livelock/Timeout). */
bool isSupervisedExit(ExitCause cause);

/** Result of Simulator::run(). */
struct SimResult
{
    ExitCause cause;
    Tick tick;          ///< curTick when the loop returned
    std::string message;///< exit message (e.g. workload status)
    /** Watchdog report (pending events, machine state, flight
     *  recorder); empty unless isSupervisedExit(cause). */
    std::string diagnostic;
};

/** One flight-recorder entry: an event the loop serviced. */
struct FlightRecord
{
    Tick tick;
    std::int16_t priority;
    std::string name;
};

/**
 * Probe reporting how many transient pooled resources (packets) are
 * currently outstanding — allocated but not yet returned to their
 * pool. Registered by the pool's translation unit at static-init
 * time (sim/ stays ignorant of mem/); null when no pool is linked
 * in. The Simulator asserts the count has returned to its
 * construction-time baseline at every quiescent point and at
 * teardown: with packet-owning events, a count above the baseline
 * there is a leaked packet, and failing loudly turns a silent leak
 * into a diagnosable abort (with a live pointer for ASan). Baseline
 * rather than zero because the pool is per-thread and sibling
 * machines may hold legitimately parked packets (see
 * TransientDrainGuard).
 */
using TransientResourceProbe = std::uint64_t (*)();

/** Register @p probe (nullptr to remove). */
void setTransientResourceProbe(TransientResourceProbe probe);

/**
 * The simulation root. Owns the event queue, tracks all SimObjects,
 * drives the init/regStats/startup phases, and runs the event loop.
 */
class Simulator : public stats::Group
{
  public:
    explicit Simulator(const std::string &name = "system");
    ~Simulator() override;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** The single event queue (mg5 is single threaded, as gem5). */
    EventQueue &eventq() { return eventq_; }

    Tick curTick() const { return eventq_.curTick(); }

    /** Called by the SimObject constructor. */
    void registerObject(SimObject *obj);
    void unregisterObject(SimObject *obj);

    /**
     * Run init/regStats/startup once, then service events until an
     * exit is requested, the queue empties, or @p tick_limit passes.
     * May be called repeatedly to continue a simulation.
     *
     * With a watchdog configured (configure() with supervise set)
     * the loop additionally
     * returns Livelock / WatchdogTimeout; with an activity probe
     * installed (setActivityProbe) an empty queue while the machine
     * still expects progress returns Deadlock. Supervised exits carry
     * a diagnostic dump instead of hanging or aborting.
     */
    SimResult run(Tick tick_limit = maxTick);

    /**
     * Apply a full RunOptions bundle: watchdog, auto-checkpoint,
     * checkpoint retry, fault seed. Idempotent; a later call
     * replaces the earlier one wholesale (so `configure({})` returns
     * the simulator to its unsupervised defaults). The one way run
     * control is set. It never touches an attached profiler, so
     * configure() and attachProfiler() may come in either order.
     */
    void configure(const RunOptions &options);

    /** Convenience: configure() then run(). */
    SimResult
    run(const RunOptions &options, Tick tick_limit = maxTick)
    {
        configure(options);
        return run(tick_limit);
    }

    /** The options applied by the last configure() (default-built
     *  until then). FaultInjector reads faultSeed from here. */
    const RunOptions &runOptions() const { return runOptions_; }

    /**
     * Install a caller-owned profiler into the event loop and
     * register all current objects as owners. Arms it if not yet
     * armed. The one way a run is profiled: the simulator never owns
     * a profiler. The caller keeps it alive until the simulator is
     * destroyed or another attachProfiler() replaces it.
     */
    void attachProfiler(Profiler &profiler);

    /** The attached profiler; null if none. */
    Profiler *profiler() const { return profiler_; }

    /** The active watchdog configuration. */
    const WatchdogConfig &watchdog() const { return watchdog_; }

    /**
     * Install the deadlock probe: returns true while the machine
     * still expects progress (e.g. CPUs activated but not all
     * halted). An empty event queue with the probe returning true is
     * a deadlock, not a normal end-of-simulation. Pass nullptr to
     * remove.
     */
    void setActivityProbe(std::function<bool()> probe)
    { activityProbe_ = std::move(probe); }

    /**
     * Install the machine-state reporter appended to diagnostic
     * dumps (per-CPU PC/halt/instruction state). Pass nullptr to
     * remove.
     */
    void setDiagProbe(std::function<std::string()> probe)
    { diagProbe_ = std::move(probe); }

    /**
     * The watchdog report: pending events, the diag probe's machine
     * state, and the flight-recorder tail. Also callable directly
     * for ad-hoc debugging.
     */
    std::string diagnosticDump() const;

    /** Flight-recorder contents, oldest first. */
    std::vector<FlightRecord> flightRecords() const;

    /**
     * Request the loop to return at @p when (now if 0). Mirrors
     * gem5's exitSimLoop().
     */
    void exitSimLoop(const std::string &message,
                     ExitCause cause = ExitCause::Finished,
                     Tick when = 0);

    /** Dump all statistics in stats.txt format. */
    void dumpStats(std::ostream &os) const;

    /** Reset all statistics (gem5 m5 resetstats). */
    void resetAllStats();

    /** Checkpoint format revision written into the meta section. */
    static constexpr unsigned checkpointVersion = 1;

    /**
     * Service events normally until the queue is quiescent (no
     * transient callback events pending, i.e. no memory transaction
     * in flight anywhere). Because this is exactly what run() would
     * do next, seeking a quiescent point does not perturb the
     * simulation — a run that checkpoints mid-way produces the same
     * final state as one that never did.
     *
     * Throws InvariantError if no quiescent point is found within
     * @p max_events (a wedged or pathological machine).
     *
     * @return false if an exit event fired before a quiescent point
     *         was found (the simulation ended); true otherwise.
     */
    bool advanceToQuiescence(std::uint64_t max_events = 100'000'000);

    /**
     * Advance to a quiescent point, then serialize the whole machine
     * to @p path.
     *
     * @return true if the checkpoint was written; false if the
     *         simulation exited during the quiescence seek (it
     *         simply finished — not an error, nothing was written).
     * Throws CheckpointError on I/O failure after bounded retries.
     */
    bool checkpoint(const std::string &path);

    /** Restore a checkpoint written by checkpoint(). */
    void restore(const std::string &path);

    /**
     * Serialize every object, pending events, and stats counters.
     * The queue must already be quiescent (see checkpoint()).
     */
    void takeCheckpoint(CheckpointOut &cp) const;

    /**
     * Restore into a freshly built, identically configured machine.
     * Runs the init phase first, clears startup-scheduled events,
     * then restores objects, stats and pending events. Unknown
     * checkpoint sections warn; objects missing from the checkpoint
     * keep their freshly built state.
     */
    void restoreCheckpoint(const CheckpointIn &cp);

    /** True once restoreCheckpoint() has run (skip CPU activation). */
    bool restored() const { return restored_; }

    /**
     * Run the init/regStats/startup phases for objects constructed
     * after the first run() — the CPU-model switch constructs cores
     * mid-simulation. Objects that already had their phases keep
     * them; run() calls this implicitly, so it is only needed when
     * state must be restored into the new objects before the next
     * run() (e.g. os::System::switchCpu).
     */
    void initNewObjects() { initPhase(); }

    /** All registered objects (init order). */
    const std::vector<SimObject *> &objects() const { return objects_; }

  private:
    class ExitEvent;

    void initPhase();

    /** configure() internals. */
    void applyWatchdog(const WatchdogConfig &config, bool enabled);
    void applyAutoCheckpoint(Tick period, std::string prefix);

    /** Append one serviced event to the flight-recorder ring. */
    void recordFlight(Tick when, std::int16_t priority,
                      std::string name);

    /** Build the SimResult for a watchdog-detected condition. */
    SimResult supervisedExit(ExitCause cause, std::string message);

    /** Auto-checkpoint event action: mark a checkpoint as due. */
    void autoCkptDue() { autoCkptPending_ = true; }

    /** Take the pending auto-checkpoint (called from run()). */
    void doAutoCheckpoint();

    /** Assert the transient-resource probe reads zero (see
     *  setTransientResourceProbe); @p when names the check point. */
    void assertTransientsDrained(const char *when) const;

    /** Per-simulator synthetic data segment (determinism). */
    trace::DataSpace dataSpace_;

    /**
     * Teardown drain check. Declared immediately before eventq_ so
     * its destructor runs immediately *after* ~EventQueue — which
     * clears the queue and thereby destroys every unfired
     * packet-owning event, returning their packets to the pool. Any
     * packet beyond the construction-time baseline still outstanding
     * at that point has genuinely leaked.
     *
     * The baseline (probe reading when this Simulator was built)
     * rather than zero: the pool is per-thread, not per-simulator,
     * and another machine on this thread may legitimately hold
     * parked packets — e.g. a finished Minor/O3 run whose final
     * speculative fetches halted mid-flight and now sit on its MSHRs
     * and unfired events until that machine is torn down. This
     * simulator is only accountable for returning the count to what
     * it found.
     */
    struct TransientDrainGuard
    {
        TransientDrainGuard();
        ~TransientDrainGuard();
        std::uint64_t baseline;
    };
    TransientDrainGuard transientGuard_;

    EventQueue eventq_;
    std::vector<SimObject *> objects_;
    std::uint64_t eventsServiced_ = 0;

    bool exitRequested_ = false;
    ExitCause exitCause_ = ExitCause::Finished;
    std::string exitMessage_;
    std::vector<std::unique_ptr<ExitEvent>> pendingExits_;
    /** Monotonic id making exit-event checkpoint tags unique. */
    std::uint64_t nextExitId_ = 0;

    bool restored_ = false;

    WatchdogConfig watchdog_;
    /** True when supervision is configured; gates per-event checks. */
    bool watchdogEnabled_ = false;
    std::function<bool()> activityProbe_;
    std::function<std::string()> diagProbe_;

    /** Flight recorder: ring of the last-N serviced events. */
    std::vector<FlightRecord> flight_;
    std::size_t flightNext_ = 0;

    Tick autoCkptPeriod_ = 0;
    std::string autoCkptPrefix_;
    bool autoCkptPending_ = false;
    MemberEventWrapper<&Simulator::autoCkptDue> autoCkptEvent_;

    /** Last options handed to configure(). */
    RunOptions runOptions_;

    /** The attached caller-owned profiler; null when profiling is
     *  off. */
    Profiler *profiler_ = nullptr;

    /** Next SimObject id (0 is this root). */
    std::uint32_t nextObjectId_ = 1;
};

/**
 * @{ Write/read the non-derived stats of @p group as a "stats"
 * subsection of the current checkpoint section (the format
 * takeCheckpoint uses per object). Shared with the CPU-model switch,
 * which serializes only the CPU sections of a machine.
 */
void serializeGroupStats(const stats::Group &group, CheckpointOut &cp);
void unserializeGroupStats(stats::Group &group, const CheckpointIn &cp);
/** @} */

} // namespace g5p::sim

#endif // G5P_SIM_SIMULATOR_HH
