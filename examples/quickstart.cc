/**
 * @file
 * Quickstart: build a simulated machine, run a workload on each CPU
 * model, and print gem5-style statistics — the mg5 equivalent of
 * "hello world" in gem5's Learning-gem5 tutorial.
 *
 * Usage: quickstart [workload] [scale] [flags]  (see --help)
 *
 * With --profile=trace.json the simulator profiles itself: all four
 * runs land in one Chrome trace (one trace process per CPU model),
 * and the hottest event classes print per model.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "base/sim_error.hh"
#include "base/str.hh"
#include "common/cli.hh"
#include "core/report.hh"
#include "core/telemetry.hh"
#include "os/system.hh"
#include "workloads/workload.hh"

using namespace g5p;

namespace
{

int
runMain(int argc, char **argv)
{
    examples::CliSpec spec;
    spec.usage = "[workload] [scale]";
    spec.defaultWorkload = "sieve";
    examples::CliOptions opts = examples::parseCli(argc, argv, spec);

    std::cout << "mg5 quickstart: running '" << opts.workload
              << "' (scale " << opts.scale << ", " << opts.cores
              << (opts.cores == 1 ? " core" : " cores")
              << ") on all four CPU models\n";

    core::Table table({"CPU model", "guest insts", "sim ticks",
                       "guest IPC", "checksum", "ok"});

    // One profiler per model, kept alive past its Simulator so the
    // four runs become four processes in a single trace file.
    std::vector<std::unique_ptr<sim::Profiler>> profilers;
    std::vector<core::TraceSession> sessions;

    for (os::CpuModel model : os::allCpuModels) {
        sim::Simulator simulator("system");
        auto workload = workloads::Registry::instance().create(
            opts.workload, opts.scale);

        os::SystemConfig cfg;
        cfg.cpuModel = model;
        cfg.mode = os::SimMode::SE;
        cfg.numCpus = opts.cores;
        os::System system(simulator, cfg, *workload);

        simulator.configure(opts.run);

        if (opts.profiling()) {
            sim::ProfilerConfig pc = opts.profiler;
            if (!pc.metricsPath.empty())
                pc.metricsPath += std::string(".") +
                                  os::cpuModelName(model);
            profilers.push_back(
                std::make_unique<sim::Profiler>(pc));
            simulator.attachProfiler(*profilers.back());
            sessions.push_back({os::cpuModelName(model),
                                profilers.back().get()});
        }

        sim::SimResult result = system.run();
        if (result.cause != sim::ExitCause::Finished) {
            std::cerr << "unexpected exit: "
                      << sim::exitCauseName(result.cause) << "\n";
            return 1;
        }
        if (opts.profiling())
            profilers.back()->disarm();

        // Aggregate over every core, not just cpu0 — on multi-core
        // runs the workers commit a large share of the instructions.
        std::uint64_t insts = system.totalInsts();
        double ipc = insts /
                     (double)(result.tick / 500); // 2GHz, 500 ticks
        std::uint64_t expected =
            workload->expectedResult(opts.cores);
        bool ok = expected == 0 || system.result() == expected;

        table.addRow({os::cpuModelName(model),
                      std::to_string(insts),
                      std::to_string(result.tick),
                      fmtDouble(ipc, 3),
                      std::to_string(system.result()),
                      ok ? "yes" : "NO"});
    }

    table.print(std::cout);
    std::cout << "\nAll four CPU models computed the same "
              << "architectural result at different timing detail.\n";

    if (opts.profiling()) {
        for (const auto &session : sessions) {
            core::printHostProfile(
                std::cout,
                std::string("self-profile: ") + session.label +
                    " (wall clock by event class)",
                core::hostProfileFromSelf(*session.profiler), 5);
        }
        if (!opts.profilePath.empty() &&
            core::writeChromeTraceFile(opts.profilePath, sessions)) {
            std::cout << "\nChrome trace (all four models) written "
                      << "to '" << opts.profilePath
                      << "' — open in Perfetto.\n";
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
