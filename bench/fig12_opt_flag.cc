/**
 * @file
 * Fig. 12: speedup from compiling gem5 with "-O3" per workload and
 * platform. The paper: averages of 1.38% / 0.98% / 0.78% on
 * Intel_Xeon / M1_Pro / M1_Ultra, with a few regressions.
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
        "Fig. 12: speedup from the -O3 build (Timing CPU)");

    auto platforms = host::tableIIPlatforms();

    // Prefetch the base/-O3 pairs on the worker pool (--jobs N).
    {
        std::vector<core::RunConfig> sweep;
        for (const auto &wl : benchWorkloads(opts)) {
            for (const auto &platform : platforms) {
                core::RunConfig cfg;
                cfg.workload = wl;
                cfg.cpuModel = os::CpuModel::Timing;
                cfg.platform = platform;
                sweep.push_back(cfg);
                cfg.tuning.optO3 = true;
                sweep.push_back(cfg);
            }
        }
        cache.prefetch(std::move(sweep));
    }

    std::vector<std::string> headers{"Workload"};
    for (const auto &platform : platforms)
        headers.push_back(platform.name);
    core::Table table(headers);

    std::map<std::string, std::vector<double>> per_platform;
    for (const auto &wl : benchWorkloads(opts)) {
        std::vector<std::string> row{wl};
        for (const auto &platform : platforms) {
            core::RunConfig cfg;
            cfg.workload = wl;
            cfg.cpuModel = os::CpuModel::Timing;
            cfg.platform = platform;
            const auto &base = cache.get(cfg);
            cfg.tuning.optO3 = true;
            const auto &opt = cache.get(cfg);
            double pct = tuning::o3SpeedupPercent(base, opt);
            per_platform[platform.name].push_back(pct);
            row.push_back(fmtDouble(pct, 2) + "%");
        }
        table.addRow(row);
    }

    std::vector<std::string> mean_row{"mean"};
    for (const auto &platform : platforms) {
        const auto &v = per_platform[platform.name];
        double sum = 0;
        for (double p : v)
            sum += p;
        mean_row.push_back(fmtDouble(sum / v.size(), 2) + "%");
    }
    table.addRow(mean_row);

    if (opts.csv)
        table.printCsv(os);
    else
        table.print(os);

    os << "\nPaper reference: mean speedups 1.38% (Xeon), 0.98% "
          "(M1_Pro), 0.78% (M1_Ultra);\nindividual workloads can "
          "regress because -O3 also relinks the binary.\n";
    return 0;
}
