/**
 * @file
 * Experiment harness: one call runs a complete profiled simulation —
 * build an mg5 machine, run a workload on it, lower its dynamic trace
 * to host instructions, and account them on a host-platform model —
 * returning everything the paper's figures need. This is the
 * top-level public API of the reproduction.
 */

#ifndef G5P_CORE_EXPERIMENT_HH
#define G5P_CORE_EXPERIMENT_HH

#include <compare>
#include <string>

#include "core/telemetry.hh"
#include "host/corun.hh"
#include "host/host_core.hh"
#include "os/system.hh"
#include "sim/run_options.hh"
#include "workloads/spec_streams.hh"
#include "workloads/workload.hh"

namespace g5p::core
{

/** How the code segment of mg5 is backed (paper §V-A, Fig. 10). */
enum class HugePageMode : std::uint8_t
{
    None, ///< base pages
    Thp,  ///< transparent huge pages: iodlr-style partial remap
    Ehp,  ///< explicit huge pages: libhugetlbfs-style, full coverage
};

/** Host-side tuning knobs (paper §V-A). */
struct TuningConfig
{
    /** Huge-page backing of the code segment. */
    HugePageMode hugePages = HugePageMode::None;

    /** Compile with -O3: smaller code, slightly fewer instructions. */
    bool optO3 = false;

    /**
     * Build with hot/cold function splitting and the linker order
     * file (the G5P_HOT_LAYOUT build of mg5 itself): cold paths move
     * out of the fall-through text and tools/hot_order.txt packs the
     * survivors, so the same executed bytes land on far fewer lines
     * and pages. Models the PR 9 front-end work; bench/abl_frontend
     * runs it, with THP code backing, against the stock layout.
     */
    bool hotLayout = false;

    /** Host frequency override in GHz (0 = platform default). */
    double freqGHzOverride = 0.0;

    /** TurboBoost enabled. */
    bool turbo = false;

    auto operator<=>(const TuningConfig &) const = default;
};

/** Everything a profiled run needs. */
struct RunConfig
{
    std::string workload = "water_nsquared";
    os::CpuModel cpuModel = os::CpuModel::Atomic;
    os::SimMode mode = os::SimMode::SE;
    unsigned guestCpus = 1;
    double workloadScale = 1.0;
    std::uint64_t maxGuestInsts = 0;

    /**
     * Fast-forward: run the first N guest instructions on the Atomic
     * model, then drain-and-switch (os::System::switchCpu) to
     * cpuModel for the rest of the run. 0 runs cpuModel throughout.
     * No effect when cpuModel is already Atomic.
     */
    std::uint64_t fastForwardInsts = 0;

    host::HostPlatformConfig platform;
    host::CorunScenario corun;
    TuningConfig tuning;

    std::uint64_t seed = 1;

    /** Run-control knobs (watchdog, auto-checkpoint, checkpoint
     *  retry, fault seed) applied to the run's Simulator. */
    sim::RunOptions run;

    /** Caller-owned self-profiler attached to this run's Simulator
     *  (e.g. one shared across a campaign); the run is wrapped in a
     *  span named after the workload/platform. The harness's one
     *  profiling hook. */
    sim::Profiler *profiler = nullptr;
};

/** Results of one profiled run. */
struct RunResult
{
    std::string workload;
    std::string platform;
    os::CpuModel cpuModel = os::CpuModel::Atomic;
    os::SimMode mode = os::SimMode::SE;

    /**
     * Why the final simulation loop returned. Finished for a normal
     * end of workload; WatchdogTimeout / Deadlock / Livelock when
     * the supervision machinery cut the run short (the counters then
     * cover only the portion that ran). Pooled sweeps report a
     * capped job here instead of aborting the whole sweep.
     */
    sim::ExitCause exitCause = sim::ExitCause::Finished;

    /** Exit message (supervised exits carry the watchdog verdict). */
    std::string exitMessage;

    /** @{ Host side. */
    host::HostCounters counters;
    host::TopdownBreakdown topdown;
    double hostSeconds = 0;   ///< the paper's "simulation time"
    double ipc = 0;
    std::uint64_t hostInsts = 0;
    std::uint64_t codeBytes = 0; ///< laid-out text footprint
    /** @} */

    /** @{ Guest side. */
    std::uint64_t guestInsts = 0;
    Tick simTicks = 0;
    std::uint64_t guestResult = 0;
    bool resultChecked = false;
    bool resultOk = false;
    /** @} */

    /** @{ Function profile (Fig. 15). */
    std::size_t distinctFunctions = 0;
    HostProfile functionProfile; ///< hostProfileFromSelfOps()
    /** @} */

    /**
     * @{ Detailed memory-path health (PR 10), read from the plain
     * observability counters after the run — never from stats, so
     * checkpoint stat dumps stay byte-identical. Zero on runs that
     * never touch the timing path (pure Atomic).
     */
    std::uint64_t packetPoolHighWater = 0; ///< peak packets in flight
    std::uint64_t packetPoolSlabs = 0;     ///< slabs carved so far
    std::uint64_t snoopFilterLines = 0;    ///< entries at run end
    std::uint64_t snoopFilterCapacity = 0; ///< slots at run end
    double snoopFilterAvgProbe = 0;        ///< mean probe length
    std::uint64_t mshrIndexProbes = 0;     ///< line-index lookups
    double mshrIndexAvgProbe = 0;          ///< mean probe length
    /** @} */
};

/**
 * Run one profiled simulation. Deterministic for a given config.
 * The host model runs on a second thread (trace::PipelinedSink),
 * overlapping the synthesizer; results are bit-identical to feeding
 * it directly.
 */
RunResult runProfiledSimulation(const RunConfig &config);

/**
 * Run a SPEC reference stream (bare metal, no mg5) on a platform.
 * Fills only the host-side fields.
 */
RunResult runSpecReference(const workloads::SpecStreamConfig &stream,
                           const host::HostPlatformConfig &platform,
                           std::uint64_t seed = 1);

/**
 * The effective platform a run executes on, after co-run contention
 * and tuning adjustments (exposed for tests).
 */
host::HostPlatformConfig effectivePlatform(const RunConfig &config);

} // namespace g5p::core

#endif // G5P_CORE_EXPERIMENT_HH
