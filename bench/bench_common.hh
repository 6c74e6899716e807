/**
 * @file
 * Shared plumbing for the figure-regeneration binaries: one profiled
 * run per (workload, model, mode, platform, tuning) point, small CLI
 * (--quick / --full / --scale / --csv), and formatting helpers.
 *
 * Every bench prints the same rows/series as its paper figure; see
 * DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
 * paper-vs-measured numbers.
 */

#ifndef G5P_BENCH_COMMON_HH
#define G5P_BENCH_COMMON_HH

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "base/str.hh"
#include "core/experiment.hh"
#include "core/parallel.hh"
#include "core/report.hh"
#include "core/topdown.hh"
#include "tuning/dvfs.hh"
#include "tuning/hugepages.hh"
#include "tuning/optflag.hh"

namespace g5p::bench
{

/** CLI options common to all figure binaries. */
struct BenchOptions
{
    double scale = 0.25;  ///< workload input scale
    bool quick = false;   ///< trim sweeps for CI-speed runs
    bool full = false;    ///< widen sweeps for paper-fidelity runs
    bool csv = false;     ///< machine-readable output

    /**
     * Per-run guest-instruction budget (0 = run to completion).
     * Guest workloads differ widely in dynamic length; capping keeps
     * the whole suite minutes-scale while every comparison still
     * measures the same guest work on both sides.
     */
    std::uint64_t maxGuestInsts = 16000;

    /**
     * Worker threads for sweep prefetches (RunCache::prefetch).
     * 1 = serial; 0 = one per hardware thread. Results are
     * byte-identical either way (see core/parallel.hh), so --jobs is
     * purely a wall-clock knob.
     */
    unsigned jobs = 1;

    static BenchOptions
    parse(int argc, char **argv)
    {
        BenchOptions opts;
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--quick") {
                opts.quick = true;
                opts.scale = 0.1;
                opts.maxGuestInsts = 4000;
            } else if (arg == "--full") {
                opts.full = true;
                opts.scale = 0.6;
                opts.maxGuestInsts = 0;
            } else if (arg == "--csv") {
                opts.csv = true;
            } else if (arg == "--scale" && i + 1 < argc) {
                opts.scale = std::atof(argv[++i]);
            } else if (arg == "--jobs" && i + 1 < argc) {
                opts.jobs = (unsigned)std::atoi(argv[++i]);
            } else if (arg == "--help") {
                std::cout <<
                    "options: --quick | --full | --csv | "
                    "--scale <f> | --jobs <n>\n";
                std::exit(0);
            }
        }
        return opts;
    }
};

/**
 * A run's identity: every RunConfig field except the profiler, which
 * observes a run without changing its result. The nested configs
 * compare field by field, and binding every member here stops a field
 * added to RunConfig from compiling until it is placed in the key (or
 * left out here on purpose).
 */
inline auto
runKey(const core::RunConfig &cfg)
{
    const auto &[workload, cpuModel, mode, guestCpus, scale,
                 maxGuestInsts, fastForwardInsts, platform, corun,
                 tuning, seed, run, profiler] = cfg;
    (void)profiler;
    return std::tuple(workload, cpuModel, mode, guestCpus, scale,
                      maxGuestInsts, fastForwardInsts, platform, corun,
                      tuning, seed, run);
}

/** Cache of profiled runs so figures sharing points don't re-run. */
class RunCache
{
  public:
    explicit RunCache(const BenchOptions &opts) : opts_(opts) {}

    const core::RunResult &
    get(core::RunConfig cfg)
    {
        normalize(cfg);
        Key key = runKey(cfg);
        auto it = cache_.find(key);
        if (it != cache_.end())
            return it->second;
        std::cerr << "  running " << cfg.workload << " "
                  << os::cpuModelName(cfg.cpuModel) << " on "
                  << cfg.platform.name << " ...\n";
        auto [pos, _] =
            cache_.emplace(key, core::runProfiledSimulation(cfg));
        return pos->second;
    }

    /**
     * Fill the cache for a whole sweep on the worker pool (--jobs N)
     * before the figure's loops read it back with get(). Duplicate
     * and already-cached points are skipped; with jobs == 1 this is
     * exactly the serial runs get() would have done, in the same
     * order, so figures are byte-identical regardless of --jobs.
     */
    void
    prefetch(std::vector<core::RunConfig> configs)
    {
        std::vector<core::RunConfig> pending;
        std::vector<Key> keys;
        for (core::RunConfig &cfg : configs) {
            normalize(cfg);
            Key key = runKey(cfg);
            if (cache_.count(key) ||
                std::find(keys.begin(), keys.end(), key) !=
                    keys.end())
                continue;
            pending.push_back(cfg);
            keys.push_back(std::move(key));
        }
        if (pending.empty())
            return;
        std::cerr << "  prefetching " << pending.size()
                  << " runs on " << (opts_.jobs ? opts_.jobs :
                      core::ParallelExecutor::hardwareJobs())
                  << " worker(s) ...\n";
        std::vector<core::RunResult> results =
            core::runExperiments(pending, opts_.jobs);
        for (std::size_t i = 0; i < results.size(); ++i)
            cache_.emplace(keys[i], std::move(results[i]));
    }

  private:
    void
    normalize(core::RunConfig &cfg) const
    {
        cfg.workloadScale = opts_.scale;
        cfg.maxGuestInsts = opts_.maxGuestInsts;
    }

    using Key = decltype(runKey(core::RunConfig{}));

    BenchOptions opts_;
    std::map<Key, core::RunResult> cache_;
};

/** Geometric mean (Fig. 1 aggregates per-workload ratios this way). */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / (double)values.size());
}

/** Workload subset by run budget. */
inline std::vector<std::string>
benchWorkloads(const BenchOptions &opts)
{
    if (opts.quick)
        return {"water_nsquared", "canneal", "blackscholes"};
    return workloads::Registry::parsecSplashNames();
}

inline const char *
onOff(bool v)
{
    return v ? "on" : "off";
}

/** One labeled profile row of Figs. 2-6. */
struct ProfileRow
{
    std::string label;
    const core::RunResult *run;
};

/**
 * The gem5 configuration rows the paper's Top-Down figures use:
 * every CPU type on BOOT_EXIT (FS) and on a PARSEC workload (SE),
 * profiled on the Intel_Xeon platform.
 */
inline std::vector<ProfileRow>
gem5ProfileRows(RunCache &cache, const BenchOptions &opts)
{
    std::vector<ProfileRow> rows;
    for (os::CpuModel model : os::allCpuModels) {
        std::string mname = os::cpuModelName(model);
        for (auto &c : mname)
            c = (char)std::toupper(c);

        if (!opts.quick) {
            core::RunConfig boot;
            boot.workload = "boot-exit";
            boot.cpuModel = model;
            boot.mode = os::SimMode::FS;
            boot.platform = host::xeonConfig();
            rows.push_back(
                {mname + "_BOOT_EXIT", &cache.get(boot)});
        }

        core::RunConfig parsec;
        parsec.workload = "water_nsquared";
        parsec.cpuModel = model;
        parsec.mode = os::SimMode::SE;
        parsec.platform = host::xeonConfig();
        rows.push_back({mname + "_PARSEC", &cache.get(parsec)});
    }
    return rows;
}

/** The three SPEC reference rows (bare metal on Intel_Xeon). */
inline std::vector<std::pair<std::string, core::RunResult>>
specProfileRows()
{
    std::vector<std::pair<std::string, core::RunResult>> rows;
    for (const auto &stream : workloads::specReferenceStreams()) {
        rows.emplace_back(stream.name,
                          core::runSpecReference(
                              stream, host::xeonConfig()));
    }
    return rows;
}

} // namespace g5p::bench

#endif // G5P_BENCH_COMMON_HH
