/**
 * @file
 * Modeled Top-Down of mg5's own front-end optimization: hot/cold text
 * layout and THP-backed text.
 *
 * Running the same profiled simulation with the stock layout
 * ("before") and with the hot layout and THP text the build ships
 * ("after") must show front-end-bound% dropping: the fig. 2/3-style
 * evidence that the optimization attacks the bottleneck the paper
 * diagnosed rather than some accidental slack. Event entries are the
 * virtual process() call in both legs, as in the binary.
 *
 * The wall-clock side is an A/B against an earlier revision:
 * `bash benchmark/ab.sh <rev> --workload W`.
 *
 * Writes BENCH_frontend.json. Options: --json <path>, --quick.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hh"

using namespace g5p;

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_frontend.json";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--help") {
            std::printf("options: --json <path> | --quick\n");
            return 0;
        }
    }

    // Before: stock text layout. After: the hot/cold split and order
    // file, THP-backed text. hotLayout densifies the fetched text and
    // THP backs the packed hot pages with huge pages — the
    // icache/iTLB share of front-end bound.
    core::RunConfig cfg;
    cfg.workload = "water_nsquared";
    cfg.cpuModel = os::CpuModel::O3;
    cfg.platform = host::xeonConfig();
    cfg.workloadScale = 0.1;
    cfg.maxGuestInsts = quick ? 4000 : 12000;

    std::fprintf(stderr, "  running modeled Top-Down legs ...\n");
    core::RunResult before = core::runProfiledSimulation(cfg);
    cfg.tuning.hotLayout = true;
    cfg.tuning.hugePages = core::HugePageMode::Thp;
    core::RunResult after = core::runProfiledSimulation(cfg);

    double fe_before = before.topdown.frontendBound();
    double fe_after = after.topdown.frontendBound();
    core::printBanner(std::cout,
        "Modeled Top-Down: O3/water_nsquared, stock vs hot layout "
        "and THP text");
    {
        core::Table table({"leg", "retiring", "bad spec", "FE bound",
                           "BE bound"});
        table.addRow({"before (stock layout)",
                      fmtPercent(before.topdown.retiring),
                      fmtPercent(
                          before.topdown.badSpeculation),
                      fmtPercent(fe_before),
                      fmtPercent(before.topdown.backendBound)});
        table.addRow({"after (hot layout+THP)",
                      fmtPercent(after.topdown.retiring),
                      fmtPercent(after.topdown.badSpeculation),
                      fmtPercent(fe_after),
                      fmtPercent(after.topdown.backendBound)});
        table.print(std::cout);
    }
    std::printf("front-end bound: %.2f%% -> %.2f%% "
                "(delta %+.2f pts)\n", 100 * fe_before,
                100 * fe_after, 100 * (fe_after - fe_before));

    std::ofstream json(json_path);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\n  \"bench\": \"frontend\",\n"
                  "  \"topdown_frontend_bound_before\": %.5f,\n"
                  "  \"topdown_frontend_bound_after\": %.5f\n}\n",
                  fe_before, fe_after);
    json << buf;
    if (!json) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());

    if (fe_after >= fe_before) {
        std::printf("FAIL: modeled front-end bound did not drop "
                    "(%.4f -> %.4f)\n", fe_before, fe_after);
        return 1;
    }
    return 0;
}
