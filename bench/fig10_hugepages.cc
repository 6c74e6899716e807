/**
 * @file
 * Fig. 10: performance gain from backing gem5's code with huge pages
 * (THP via iodlr-style remap, EHP via libhugetlbfs-style relink) per
 * CPU type on Intel_Xeon. The paper: up to 5.9% speedup, larger for
 * detailed CPU models.
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
        "Fig. 10: speedup from huge-page code backing on "
        "Intel_Xeon (water_nsquared)");

    core::Table table({"CPU type", "THP speedup", "EHP speedup"});
    for (os::CpuModel model : os::allCpuModels) {
        core::RunConfig cfg;
        cfg.workload = "water_nsquared";
        cfg.cpuModel = model;
        cfg.platform = host::xeonConfig();
        const auto &base = cache.get(cfg);

        cfg.tuning.hugePages = core::HugePageMode::Thp;
        double thp = tuning::speedupOver(base, cache.get(cfg));
        cfg.tuning.hugePages = core::HugePageMode::Ehp;
        double ehp = tuning::speedupOver(base, cache.get(cfg));

        table.addRow({os::cpuModelName(model),
                      fmtPercent(thp - 1.0),
                      fmtPercent(ehp - 1.0)});
    }

    if (opts.csv)
        table.printCsv(os);
    else
        table.print(os);

    os << "\nPaper reference: up to 5.9% improvement; simple CPUs "
          "gain less than detailed ones;\nno consistent winner "
          "between THP and EHP.\n";
    return 0;
}
