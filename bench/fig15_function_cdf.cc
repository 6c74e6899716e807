/**
 * @file
 * Fig. 15 (+ §VI): cumulative distribution of CPU time over the
 * hottest functions per CPU type, the hottest function's share, and
 * the total number of distinct functions called. The paper: hottest
 * shares 10.1/8.5/2.9/4.2% and 1602/2557/3957/5209 functions for
 * Atomic/Timing/Minor/O3 — no killer function to accelerate.
 */

#include "bench_common.hh"

using namespace g5p;
using namespace g5p::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    RunCache cache(opts);
    std::ostream &os = std::cout;

    core::printBanner(os,
        "Fig. 15: CDF of CPU time over the hottest functions "
        "(water_nsquared, Intel_Xeon)");

    core::Table table({"CPU type", "functions", "hottest", "top 5",
                       "top 10", "top 25", "top 50"});
    for (os::CpuModel model : os::allCpuModels) {
        core::RunConfig cfg;
        cfg.workload = "water_nsquared";
        cfg.cpuModel = model;
        cfg.platform = host::xeonConfig();
        const auto &run = cache.get(cfg);
        const auto &profile = run.functionProfile;
        table.addRow({os::cpuModelName(model),
                      std::to_string(run.distinctFunctions),
                      fmtPercent(profile.hottestShare()),
                      fmtPercent(profile.cumulativeShare(5)),
                      fmtPercent(profile.cumulativeShare(10)),
                      fmtPercent(profile.cumulativeShare(25)),
                      fmtPercent(profile.cumulativeShare(50))});
    }

    if (opts.csv)
        table.printCsv(os);
    else
        table.print(os);

    // Name the few hottest functions for the O3 run, as a profiler
    // report would.
    core::RunConfig cfg;
    cfg.workload = "water_nsquared";
    cfg.cpuModel = os::CpuModel::O3;
    cfg.platform = host::xeonConfig();
    const auto &ranked = cache.get(cfg).functionProfile.rows;
    os << "\nHottest O3 functions:\n";
    for (std::size_t i = 0; i < 8 && i < ranked.size(); ++i) {
        os << "  " << padLeft(fmtPercent(ranked[i].share), 7) << "  "
           << ranked[i].name << "\n";
    }

    os << "\nPaper reference: hottest function 10.1/8.5/2.9/4.2% "
          "and 1602/2557/3957/5209\ndistinct functions for "
          "Atomic/Timing/Minor/O3 — function counts scale with\n"
          "our smaller simulator but preserve the ordering and the "
          "flattening CDF.\n";
    return 0;
}
