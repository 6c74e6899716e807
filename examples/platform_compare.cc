/**
 * @file
 * Example: the paper's motivating experiment — run the *same*
 * simulation on the three Table II hosts and see the Apple M1 parts
 * win, then break the win down into its Fig. 8 mechanisms (L1 size,
 * page size, line size).
 *
 * Usage: platform_compare [workload] [scale]
 */

#include <iostream>

#include "base/sim_error.hh"
#include "base/str.hh"
#include "common/cli.hh"
#include "core/experiment.hh"
#include "core/parallel.hh"
#include "core/report.hh"
#include "core/telemetry.hh"

using namespace g5p;

namespace
{

int
runMain(int argc, char **argv)
{
    examples::CliSpec spec;
    spec.usage = "[workload] [scale]";
    examples::CliOptions opts = examples::parseCli(argc, argv, spec);

    core::RunConfig cfg;
    cfg.workload = opts.workload;
    cfg.workloadScale = opts.scale;
    cfg.cpuModel = os::CpuModel::O3;
    cfg.run = opts.run;

    // One profiler across the whole campaign: each platform's run
    // becomes a labelled span in a single trace.
    sim::Profiler campaignProfiler(opts.profiler);
    if (opts.profiling())
        cfg.profiler = &campaignProfiler;

    std::cout << "Same gem5 simulation (" << cfg.workload << ", "
              << "O3 CPU) on the three evaluation platforms:\n\n";

    core::Table table({"Platform", "sim time", "speedup", "IPC",
                       "L1I miss%", "iTLB miss%", "mispredict%"});

    // The three platform runs are independent: fan them out on the
    // worker pool (--jobs). A shared campaign profiler pins the runs
    // to one thread, so profiling forces serial.
    auto platforms = host::tableIIPlatforms();
    std::vector<core::RunConfig> cfgs;
    for (const auto &platform : platforms) {
        cfg.platform = platform;
        cfgs.push_back(cfg);
    }
    unsigned jobs = opts.profiling() ? 1 : opts.jobs;
    std::vector<core::RunResult> results =
        core::runExperiments(cfgs, jobs);

    double xeon_time = 0;
    for (std::size_t i = 0; i < platforms.size(); ++i) {
        const auto &platform = platforms[i];
        const core::RunResult &r = results[i];
        if (platform.name == "Intel_Xeon")
            xeon_time = r.hostSeconds;
        const auto &c = r.counters;
        auto pct = [](std::uint64_t m, std::uint64_t t) {
            return t ? fmtDouble(100.0 * m / t, 3) + "%"
                     : std::string("-");
        };
        table.addRow({platform.name,
                      fmtDouble(r.hostSeconds * 1e3, 2) + "ms",
                      fmtDouble(xeon_time / r.hostSeconds, 2) + "x",
                      fmtDouble(r.ipc, 2),
                      pct(c.icacheMisses, c.icacheAccesses),
                      pct(c.itlbMisses, c.itlbAccesses),
                      pct(c.mispredicts, c.branches)});
    }
    table.print(std::cout);

    std::cout <<
        "\nWhy the M1 parts win (paper §IV-B): 6x the L1I "
        "(192KB vs 32KB), 4x the L1D,\n16KB pages (4x iTLB reach), "
        "128B lines (half the compulsory misses), and an\n8-wide "
        "front-end with no legacy-decode bottleneck.\n";

    if (opts.profiling()) {
        campaignProfiler.disarm();
        core::printHostProfile(
            std::cout,
            "self-profile (all platforms, wall clock by event class)",
            core::hostProfileFromSelf(campaignProfiler), 10);
        if (!opts.profilePath.empty() &&
            core::writeChromeTraceFile(
                opts.profilePath,
                {{"platform_compare", &campaignProfiler}})) {
            std::cout << "\nChrome trace written to '"
                      << opts.profilePath << "'\n";
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runGuarded([&] { return runMain(argc, argv); });
}
