/**
 * @file
 * Tests for the §V-A tuning models: huge pages (THP/EHP), the -O3
 * build, and frequency scaling.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "tuning/dvfs.hh"
#include "tuning/hugepages.hh"
#include "tuning/optflag.hh"

using namespace g5p;
using namespace g5p::core;
using namespace g5p::tuning;

namespace
{

RunConfig
o3Config()
{
    RunConfig cfg;
    cfg.workload = "water_nsquared";
    cfg.workloadScale = 0.3;
    cfg.cpuModel = os::CpuModel::O3;
    cfg.platform = host::xeonConfig();
    return cfg;
}

} // namespace

TEST(HugePages, ThpCutsItlbMisses)
{
    RunConfig cfg = o3Config();
    RunResult base = runProfiledSimulation(cfg);

    cfg.tuning.hugePages = HugePageMode::Thp;
    RunResult thp = runProfiledSimulation(cfg);

    // Fig. 11: THP reduces iTLB overhead dramatically (~63% in the
    // paper) without changing the instruction stream.
    EXPECT_EQ(thp.hostInsts, base.hostInsts);
    EXPECT_LT(thp.counters.itlbMisses,
              base.counters.itlbMisses * 0.7);
    // And the run gets (at least slightly) faster: Fig. 10.
    EXPECT_GE(speedupOver(base, thp), 1.0);
}

TEST(HugePages, EhpCoversAtLeastAsMuchAsThp)
{
    RunConfig cfg = o3Config();
    cfg.tuning.hugePages = HugePageMode::Thp;
    RunResult thp = runProfiledSimulation(cfg);
    cfg.tuning.hugePages = HugePageMode::Ehp;
    RunResult ehp = runProfiledSimulation(cfg);
    EXPECT_LE(ehp.counters.itlbMisses, thp.counters.itlbMisses);
}

TEST(HugePages, BenefitGrowsWithDetail)
{
    // Fig. 10: simple CPUs gain little, detailed CPUs gain more.
    RunConfig cfg = o3Config();
    cfg.cpuModel = os::CpuModel::Atomic;
    RunResult atomic_base = runProfiledSimulation(cfg);
    cfg.tuning.hugePages = HugePageMode::Thp;
    RunResult atomic_thp = runProfiledSimulation(cfg);

    cfg = o3Config();
    RunResult o3_base = runProfiledSimulation(cfg);
    cfg.tuning.hugePages = HugePageMode::Thp;
    RunResult o3_thp = runProfiledSimulation(cfg);

    double atomic_gain = speedupOver(atomic_base, atomic_thp);
    double o3_gain = speedupOver(o3_base, o3_thp);
    EXPECT_GE(o3_gain, atomic_gain - 0.002);
}

TEST(OptFlag, ShrinksBinaryAndInstructionCount)
{
    RunConfig cfg = o3Config();
    RunResult base = runProfiledSimulation(cfg);
    cfg.tuning.optO3 = true;
    RunResult opt = runProfiledSimulation(cfg);

    EXPECT_LT(opt.codeBytes, base.codeBytes);
    EXPECT_LT(opt.hostInsts, base.hostInsts);
    // The speedup is small, possibly negative for some workloads
    // (Fig. 12) — just bound it.
    double pct = o3SpeedupPercent(base, opt);
    EXPECT_GT(pct, -8.0);
    EXPECT_LT(pct, 20.0);
}

TEST(Dvfs, SimTimeScalesRoughlyLinearly)
{
    // Fig. 13: 3.1 GHz -> 1.2 GHz gives ~2.67x the time (nearly
    // linear because DRAM traffic is negligible).
    RunConfig cfg = o3Config();
    cfg.cpuModel = os::CpuModel::Timing;
    RunResult base = runProfiledSimulation(cfg);

    cfg.tuning.freqGHzOverride = 1.2;
    RunResult slow = runProfiledSimulation(cfg);

    double ratio = normalizedTime(base, slow);
    EXPECT_GT(ratio, 2.2);
    EXPECT_LT(ratio, 3.0); // 3.1/1.2 = 2.58, paper saw 2.67
}

TEST(Dvfs, LadderIsDescending)
{
    auto ladder = xeonFrequencyLadderGHz();
    ASSERT_GE(ladder.size(), 3u);
    EXPECT_DOUBLE_EQ(ladder.front(), 3.1);
    for (std::size_t i = 1; i < ladder.size(); ++i)
        EXPECT_LT(ladder[i], ladder[i - 1]);
}

TEST(Dvfs, TurboBoostSpeedsUp)
{
    RunConfig cfg = o3Config();
    cfg.cpuModel = os::CpuModel::Atomic;
    RunResult base = runProfiledSimulation(cfg);
    cfg.tuning.turbo = true;
    RunResult turbo = runProfiledSimulation(cfg);
    EXPECT_LT(turbo.hostSeconds, base.hostSeconds);
    // Bounded by the frequency ratio 4.1/3.1.
    EXPECT_LT(base.hostSeconds / turbo.hostSeconds, 4.1 / 3.1 + 0.01);
}
