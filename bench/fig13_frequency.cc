/**
 * @file
 * Fig. 13: gem5 simulation time vs Intel_Xeon core frequency, plus
 * TurboBoost, normalized to the 3.1GHz run. The paper: time rises
 * almost exactly linearly as frequency drops (2.67x at 1.2GHz),
 * because gem5 barely touches DRAM.
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
        "Fig. 13: normalized simulation time vs host frequency "
        "(Intel_Xeon, Timing CPU)");

    core::RunConfig cfg;
    cfg.workload = "water_nsquared";
    cfg.cpuModel = os::CpuModel::Timing;
    cfg.platform = host::xeonConfig();
    const auto &base = cache.get(cfg);

    core::Table table({"Frequency", "norm. sim time",
                       "linear prediction"});
    for (double ghz : tuning::xeonFrequencyLadderGHz()) {
        cfg.tuning.freqGHzOverride = ghz;
        const auto &run = cache.get(cfg);
        table.addRow({fmtDouble(ghz, 1) + "GHz",
                      fmtDouble(tuning::normalizedTime(base, run),
                                3),
                      fmtDouble(3.1 / ghz, 3)});
    }
    cfg.tuning.freqGHzOverride = 0.0;
    cfg.tuning.turbo = true;
    const auto &turbo = cache.get(cfg);
    table.addRow({"3.1GHz + TurboBoost",
                  fmtDouble(tuning::normalizedTime(base, turbo), 3),
                  fmtDouble(3.1 / 4.1, 3)});

    if (opts.csv)
        table.printCsv(os);
    else
        table.print(os);

    os << "\nPaper reference: 1.2GHz takes 2.67x the 3.1GHz time "
          "(linear would be 2.58x).\n";
    return 0;
}
