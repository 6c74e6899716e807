/**
 * @file
 * Fig. 11: improvement in iTLB overhead and in retiring slots from
 * backing gem5's code with transparent huge pages, per CPU type on
 * Intel_Xeon. The paper: THP cuts iTLB overhead by ~63% on average
 * and adds 3-7% retiring.
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
        "Fig. 11: THP effect on iTLB overhead and retiring "
        "(Intel_Xeon, water_nsquared)");

    core::Table table({"CPU type", "iTLB slots base",
                       "iTLB slots THP", "iTLB reduction",
                       "Retiring delta"});
    std::vector<double> reductions;
    for (os::CpuModel model : os::allCpuModels) {
        core::RunConfig cfg;
        cfg.workload = "water_nsquared";
        cfg.cpuModel = model;
        cfg.platform = host::xeonConfig();
        const auto &base = cache.get(cfg);
        cfg.tuning.hugePages = core::HugePageMode::Thp;
        const auto &thp = cache.get(cfg);

        double base_itlb = base.topdown.feItlb;
        double thp_itlb = thp.topdown.feItlb;
        double reduction = base_itlb > 0
            ? 1.0 - thp_itlb / base_itlb : 0.0;
        if (base_itlb > 0.0005)
            reductions.push_back(reduction);
        table.addRow({os::cpuModelName(model),
                      fmtPercent(base_itlb, 2),
                      fmtPercent(thp_itlb, 2),
                      fmtPercent(reduction),
                      fmtPercent(thp.topdown.retiring -
                                 base.topdown.retiring, 2)});
    }

    if (opts.csv)
        table.printCsv(os);
    else
        table.print(os);

    if (!reductions.empty()) {
        double sum = 0;
        for (double r : reductions)
            sum += r;
        os << "\nmean iTLB-overhead reduction: "
           << fmtPercent(sum / reductions.size())
           << " (paper: ~63%)\n";
    }
    return 0;
}
