/**
 * @file
 * Example: host-side tuning (paper §V-A) — how much simulation time
 * the paper's zero-hardware-change knobs buy on a Xeon: transparent
 * or explicit huge pages for the simulator's code, an -O3 rebuild,
 * and TurboBoost, alone and combined.
 *
 * Usage: tune_host [workload] [scale]
 */

#include <iostream>

#include "base/sim_error.hh"
#include "base/str.hh"
#include "common/cli.hh"
#include "core/experiment.hh"
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
    cfg.platform = host::xeonConfig();
    cfg.run = opts.run;

    // One profiler shared by the base run and every knob run; each
    // configuration shows up as its own span in the trace.
    sim::Profiler campaignProfiler(opts.profiler);
    if (opts.profiling())
        cfg.profiler = &campaignProfiler;

    std::cout << "Host tuning for gem5 (" << cfg.workload
              << ", O3 CPU, Intel_Xeon):\n\n";

    core::RunResult base = core::runProfiledSimulation(cfg);

    struct Knob
    {
        const char *label;
        void (*apply)(core::TuningConfig &);
    };
    const Knob knobs[] = {
        {"baseline", [](core::TuningConfig &) {}},
        {"+ THP code backing",
         [](core::TuningConfig &t) {
             t.hugePages = core::HugePageMode::Thp;
         }},
        {"+ EHP code backing",
         [](core::TuningConfig &t) {
             t.hugePages = core::HugePageMode::Ehp;
         }},
        {"+ -O3 rebuild", [](core::TuningConfig &t) { t.optO3 = true; }},
        {"+ TurboBoost", [](core::TuningConfig &t) { t.turbo = true; }},
        {"all of the above",
         [](core::TuningConfig &t) {
             t.hugePages = core::HugePageMode::Ehp;
             t.optO3 = true;
             t.turbo = true;
         }},
    };

    core::Table table({"Configuration", "sim time", "speedup",
                       "iTLB slots", "retiring"});
    for (const auto &knob : knobs) {
        core::RunConfig run_cfg = cfg;
        knob.apply(run_cfg.tuning);
        core::RunResult r = core::runProfiledSimulation(run_cfg);
        table.addRow({knob.label,
                      fmtDouble(r.hostSeconds * 1e3, 2) + "ms",
                      fmtDouble(base.hostSeconds / r.hostSeconds,
                                3) + "x",
                      fmtPercent(r.topdown.feItlb, 2),
                      fmtPercent(r.topdown.retiring)});
    }
    table.print(std::cout);

    std::cout <<
        "\nPaper §V-A: huge pages buy up to 5.9%, -O3 about 1.4%, "
        "and frequency scales\nsimulation time almost linearly — "
        "all without touching gem5 itself.\n";

    if (opts.profiling()) {
        campaignProfiler.disarm();
        core::printHostProfile(
            std::cout,
            "self-profile (all knob runs, wall clock by event class)",
            core::hostProfileFromSelf(campaignProfiler), 10);
        if (!opts.profilePath.empty() &&
            core::writeChromeTraceFile(
                opts.profilePath,
                {{"tune_host", &campaignProfiler}})) {
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
