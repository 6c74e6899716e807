/**
 * @file
 * Example: profile a gem5-style simulation the way the paper does —
 * run the simulator as the workload-under-study on a modeled Xeon
 * host, then print the Top-Down tree, the key counters, and the
 * hottest simulator functions (VTune's view, reproduced).
 *
 * Usage: profile_simulation [workload] [cpu-model] [scale]
 *                           [--checkpoint <path> [--at <tick>]]
 *                           [--restore <path>]
 *                           [--fast-forward <insts>
 *                            [--switch-cpu <model>]]
 *                           [--sample <K,W[,seed]>
 *                            [--sample-warmup <insts>] [--jobs <n>]]
 *                           [flags; see --help]
 *   cpu-model: atomic | timing | minor | o3
 *
 * With --fast-forward=N the first N guest instructions run on the
 * Atomic model, then the machine drain-and-switches to the detailed
 * model (--switch-cpu, or the cpu-model argument) in place.
 *
 * With --sample=K,W the whole run is *estimated* from K detailed
 * W-instruction intervals restored from an Atomic checkpoint farm
 * built in a single pass (and reused by later runs with the same
 * workload, scale and W). --sample-warmup runs each interval for a
 * few thousand detailed instructions before measuring, re-warming
 * the branch predictor the fast-forward does not model. --jobs
 * parallelizes the intervals; the report is byte-identical to a
 * serial run. A sampled run builds many machines, so it cannot be
 * self-profiled: --profile, --profile-batch and --metrics are
 * refused with --sample.
 *
 * With --profile=trace.json the run is *also* self-profiled for
 * real: the modeled hot-function CDF and the measured wall-clock
 * event attribution print through the same ranked-share pipeline,
 * and a Chrome trace is written.
 *
 * With --checkpoint, the guest run is interrupted at the given tick,
 * serialized to <path>, then resumed in-process to completion. With
 * --restore, a fresh machine resumes from <path>. Both print the
 * guest-side summary instead of the host profile; the restored run
 * finishes bit-identical to an uninterrupted one.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "base/sim_error.hh"
#include "base/str.hh"
#include "common/cli.hh"
#include "core/experiment.hh"
#include "core/sampling.hh"
#include "core/telemetry.hh"
#include "core/topdown.hh"
#include "workloads/workload.hh"

using namespace g5p;

namespace
{

void
printGuestSummary(sim::Simulator &sim, os::System &system,
                  const sim::SimResult &res)
{
    std::cout << "exit               : " << res.message << "\n"
              << "final tick         : " << res.tick << "\n"
              << "guest instructions : " << system.totalInsts() << "\n"
              << "guest result       : " << system.result() << "\n"
              << "memory digest      : " << std::hex
              << system.physmem().contentDigest() << std::dec
              << "\n";
}

/** Write the demo run's trace to @p path if it is set. */
void
maybeWriteTrace(const core::RunConfig &cfg, const std::string &path)
{
    if (!cfg.profiler || path.empty())
        return;
    cfg.profiler->disarm();
    if (core::writeChromeTraceFile(
            path, {{os::cpuModelName(cfg.cpuModel), cfg.profiler}})) {
        std::cout << "\nChrome trace written to '" << path << "'\n";
    }
}

/** The --checkpoint / --restore demo: drive mg5 directly, profiled
 *  by cfg.profiler when one is set. */
int
runCheckpointDemo(const core::RunConfig &cfg,
                  const std::string &profilePath,
                  const std::string &ckptPath,
                  const std::string &restorePath, Tick ckptAt)
{
    auto wl = workloads::Registry::instance().create(
        cfg.workload, cfg.workloadScale);
    os::SystemConfig scfg;
    scfg.cpuModel = cfg.cpuModel;
    scfg.mode = cfg.mode;
    scfg.numCpus = cfg.guestCpus;

    sim::Simulator sim("system");
    os::System system(sim, scfg, *wl);
    if (cfg.profiler)
        sim.attachProfiler(*cfg.profiler);

    if (!restorePath.empty()) {
        sim.restore(restorePath);
        std::cout << "restored '" << restorePath << "' at tick "
                  << sim.curTick() << "; resuming...\n\n";
        auto res = system.run(cfg.run);
        printGuestSummary(sim, system, res);
        maybeWriteTrace(cfg, profilePath);
        return 0;
    }

    auto part = system.run(cfg.run, ckptAt);
    if (part.cause != sim::ExitCause::TickLimit) {
        std::cout << "workload finished before tick " << ckptAt
                  << "; nothing to checkpoint\n";
        printGuestSummary(sim, system, part);
        maybeWriteTrace(cfg, profilePath);
        return 0;
    }
    sim.checkpoint(ckptPath);
    std::cout << "checkpoint written to '" << ckptPath
              << "' at tick " << sim.curTick()
              << "; continuing in-process...\n\n";
    auto res = system.run();
    printGuestSummary(sim, system, res);
    maybeWriteTrace(cfg, profilePath);
    std::cout << "\nresume it with: --restore " << ckptPath << "\n";
    return 0;
}

int
runMain(int argc, char **argv)
{
    examples::CliSpec spec;
    spec.usage = "[workload] [cpu-model] [scale]";
    spec.cpuModelPositional = true;
    spec.extraFlags = {"--checkpoint", "--restore", "--at"};
    examples::CliOptions opts = examples::parseCli(argc, argv, spec);

    core::RunConfig cfg;
    cfg.workload = opts.workload;
    cfg.cpuModel = opts.cpuModel;
    cfg.workloadScale = opts.scale;
    cfg.guestCpus = opts.cores;
    cfg.fastForwardInsts = opts.fastForwardInsts;
    cfg.platform = host::xeonConfig();
    cfg.run = opts.run;

    if (opts.sampling()) {
        core::SamplingConfig scfg;
        scfg.workload = opts.workload;
        scfg.scale = opts.scale;
        scfg.detailModel = opts.cpuModel;
        scfg.K = opts.sampleK;
        scfg.W = opts.sampleW;
        scfg.warmup = opts.sampleWarmup;
        scfg.seed = opts.sampleSeed;
        scfg.jobs = opts.jobs;
        std::cout << "Sampled simulation: " << scfg.workload
                  << ", K=" << scfg.K << " x W=" << scfg.W
                  << " on the " << os::cpuModelName(scfg.detailModel)
                  << " CPU model\n\n";
        core::SamplingResult sr = core::runSampledSimulation(scfg);
        core::printSamplingReport(std::cout, sr);
        return 0;
    }

    // Self-profile through an external collector so the data
    // outlives the run's Simulator.
    sim::Profiler selfProfiler(opts.profiler);
    if (opts.profiling())
        cfg.profiler = &selfProfiler;

    if (opts.extra.count("--checkpoint") ||
        opts.extra.count("--restore")) {
        Tick ckptAt = 1'000'000;
        if (opts.extra.count("--at"))
            ckptAt = std::strtoull(opts.extra["--at"].c_str(),
                                   nullptr, 0);
        return runCheckpointDemo(cfg, opts.profilePath,
                                 opts.extra["--checkpoint"],
                                 opts.extra["--restore"], ckptAt);
    }

    std::cout << "Profiling mg5: " << cfg.workload << " on the "
              << os::cpuModelName(cfg.cpuModel)
              << " CPU model, host = " << cfg.platform.name
              << "\n";
    if (cfg.fastForwardInsts) {
        std::cout << "fast-forward: first " << cfg.fastForwardInsts
                  << " guest insts on Atomic, then drain-and-switch"
                  << "\n";
    }
    std::cout << "\n";

    core::RunResult r = core::runProfiledSimulation(cfg);

    std::cout << "guest instructions : " << r.guestInsts << "\n"
              << "guest result check : "
              << (r.resultOk ? "ok" : "MISMATCH") << "\n"
              << "host instructions  : " << r.hostInsts << "\n"
              << "host IPC           : " << fmtDouble(r.ipc, 2)
              << "\n"
              << "simulation time    : "
              << fmtDouble(r.hostSeconds * 1e3, 2) << " ms (modeled)"
              << "\n"
              << "text footprint     : " << fmtBytes(r.codeBytes)
              << "\n"
              << "LLC occupancy      : "
              << fmtBytes(r.counters.llcOccupancyBytes) << "\n"
              << "DRAM bandwidth     : "
              << fmtDouble(r.counters.dramBytes / 1e9 /
                               r.hostSeconds, 3)
              << " GB/s\n"
              << "DSB coverage       : "
              << fmtPercent(r.counters.dsbCoverage()) << "\n";
    if (r.packetPoolHighWater) {
        // Timing-path health (PR 10): zero on pure-Atomic runs.
        std::cout << "packet pool peak   : " << r.packetPoolHighWater
                  << " in flight (" << r.packetPoolSlabs
                  << " slab(s))\n"
                  << "snoop filter       : " << r.snoopFilterLines
                  << "/" << r.snoopFilterCapacity
                  << " lines, avg probe "
                  << fmtDouble(r.snoopFilterAvgProbe, 3) << "\n"
                  << "MSHR line index    : " << r.mshrIndexProbes
                  << " probes, avg "
                  << fmtDouble(r.mshrIndexAvgProbe, 3) << "\n";
    }
    std::cout << "\n";

    std::cout << "Top-Down breakdown (slots):\n";
    core::printTopdownTree(std::cout, r.topdown);

    // The paper's modeled view and (optionally) the real measured
    // view report through the same ranked-share pipeline.
    core::printHostProfile(
        std::cout,
        "hottest simulator functions (modeled, " +
            std::to_string(r.distinctFunctions) + " total)",
        r.functionProfile, 10);
    std::cout << "cumulative share of top 50: "
              << fmtPercent(r.functionProfile.cumulativeShare(50))
              << " (no killer function)\n";

    if (opts.profiling()) {
        selfProfiler.disarm();
        core::printHostProfile(
            std::cout,
            "self-profile (measured wall clock by event class)",
            core::hostProfileFromSelf(selfProfiler), 10);
        if (!opts.profilePath.empty() &&
            core::writeChromeTraceFile(
                opts.profilePath,
                {{os::cpuModelName(cfg.cpuModel), &selfProfiler}})) {
            std::cout << "\nChrome trace written to '"
                      << opts.profilePath
                      << "' — open in Perfetto.\n";
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Typed errors escape library code; the guard maps them onto the
    // historical process contract (fatal -> exit 1, invariant ->
    // abort) so scripts keep seeing the same exit codes.
    return runGuarded([&] { return runMain(argc, argv); });
}
