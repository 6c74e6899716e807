/**
 * @file
 * End-to-end tests of the experiment harness: determinism, guest
 * correctness under profiling, and the paper's headline qualitative
 * properties (M1 faster than Xeon, footprint grows with CPU detail,
 * negligible DRAM bandwidth, no killer function).
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"

using namespace g5p;
using namespace g5p::core;

namespace
{

RunConfig
baseConfig(os::CpuModel model = os::CpuModel::Atomic)
{
    RunConfig cfg;
    cfg.workload = "water_nsquared";
    cfg.workloadScale = 0.3;
    cfg.cpuModel = model;
    cfg.platform = host::xeonConfig();
    return cfg;
}

} // namespace

TEST(Experiment, GuestResultVerifiedUnderProfiling)
{
    RunResult r = runProfiledSimulation(baseConfig());
    EXPECT_TRUE(r.resultChecked);
    EXPECT_TRUE(r.resultOk);
    EXPECT_GT(r.guestInsts, 1000u);
    EXPECT_GT(r.hostInsts, r.guestInsts * 10);
    EXPECT_GT(r.hostSeconds, 0.0);
}

TEST(Experiment, DeterministicForSeed)
{
    RunResult a = runProfiledSimulation(baseConfig());
    RunResult b = runProfiledSimulation(baseConfig());
    EXPECT_EQ(a.hostInsts, b.hostInsts);
    EXPECT_DOUBLE_EQ(a.hostSeconds, b.hostSeconds);
    EXPECT_EQ(a.counters.icacheMisses, b.counters.icacheMisses);
    EXPECT_EQ(a.counters.mispredicts, b.counters.mispredicts);
    EXPECT_EQ(a.distinctFunctions, b.distinctFunctions);
}

TEST(Experiment, SeedChangesStream)
{
    RunConfig cfg = baseConfig();
    RunResult a = runProfiledSimulation(cfg);
    cfg.seed = 99;
    RunResult b = runProfiledSimulation(cfg);
    EXPECT_NE(a.hostInsts, b.hostInsts);
    // But the guest computation is unaffected.
    EXPECT_EQ(a.guestResult, b.guestResult);
    EXPECT_EQ(a.guestInsts, b.guestInsts);
}

TEST(Experiment, TopdownIdentityHolds)
{
    for (os::CpuModel model : os::allCpuModels) {
        RunResult r = runProfiledSimulation(baseConfig(model));
        EXPECT_NEAR(r.topdown.total(), 1.0, 1e-9)
            << os::cpuModelName(model);
        EXPECT_GT(r.topdown.retiring, 0.1);
        EXPECT_GT(r.topdown.frontendBound(), 0.02);
    }
}

TEST(Experiment, DetailGrowsFootprintAndFunctions)
{
    RunResult atomic =
        runProfiledSimulation(baseConfig(os::CpuModel::Atomic));
    RunResult o3 = runProfiledSimulation(baseConfig(os::CpuModel::O3));

    // Paper §IV/§VI: more detail => more functions, bigger text,
    // more i-side misses, longer simulation.
    EXPECT_GT(o3.distinctFunctions, atomic.distinctFunctions * 2);
    EXPECT_GT(o3.codeBytes, atomic.codeBytes);
    EXPECT_GT(o3.hostSeconds, atomic.hostSeconds * 2);
    double o3_mpki =
        1000.0 * o3.counters.icacheMisses / o3.counters.insts;
    double atomic_mpki =
        1000.0 * atomic.counters.icacheMisses / atomic.counters.insts;
    EXPECT_GT(o3_mpki, 2 * atomic_mpki);
}

TEST(Experiment, M1FasterThanXeon)
{
    // The paper's headline (Fig. 1): same simulation, 1.7x-3x faster
    // on M1 thanks to L1/TLB geometry.
    RunConfig cfg = baseConfig(os::CpuModel::O3);
    cfg.platform = host::xeonConfig();
    RunResult xeon = runProfiledSimulation(cfg);
    cfg.platform = host::m1ProConfig();
    RunResult m1 = runProfiledSimulation(cfg);

    double speedup = xeon.hostSeconds / m1.hostSeconds;
    EXPECT_GT(speedup, 1.3) << "M1 must win clearly";
    EXPECT_LT(speedup, 5.0) << "but not absurdly";

    // Fig. 8 mechanisms: lower iTLB and iCache miss rates on M1.
    double xeon_itlb = (double)xeon.counters.itlbMisses /
                       std::max<std::uint64_t>(1,
                           xeon.counters.itlbAccesses);
    double m1_itlb = (double)m1.counters.itlbMisses /
                     std::max<std::uint64_t>(1,
                         m1.counters.itlbAccesses);
    EXPECT_GT(xeon_itlb, m1_itlb);
    EXPECT_GT(xeon.ipc, 0.0);
    EXPECT_GT(m1.ipc / xeon.ipc, 1.2); // Fig. 7: ~2.2x IPC
}

TEST(Experiment, DramBandwidthNegligible)
{
    // Fig. 9: gem5 barely touches DRAM.
    RunResult r = runProfiledSimulation(baseConfig(os::CpuModel::O3));
    double gbs = r.counters.dramBytes / 1e9 / r.hostSeconds;
    EXPECT_LT(gbs, 5.0); // out of 141 GB/s
}

TEST(Experiment, NoKillerFunction)
{
    // Fig. 15: the hottest function stays a small share, smaller for
    // more detailed models.
    RunResult atomic =
        runProfiledSimulation(baseConfig(os::CpuModel::Atomic));
    RunResult o3 = runProfiledSimulation(baseConfig(os::CpuModel::O3));
    EXPECT_LT(atomic.functionProfile.hottestShare(), 0.25);
    EXPECT_LT(o3.functionProfile.hottestShare(),
              atomic.functionProfile.hottestShare());
    // The CDF is monotone and bounded.
    EXPECT_LE(o3.functionProfile.cumulativeShare(50), 1.0 + 1e-9);
    EXPECT_GE(o3.functionProfile.cumulativeShare(50),
              o3.functionProfile.cumulativeShare(10));
}

TEST(Experiment, CorunSlowsPerProcessTime)
{
    RunConfig cfg = baseConfig(os::CpuModel::Timing);
    RunResult single = runProfiledSimulation(cfg);

    cfg.corun = host::perHardwareThread(cfg.platform); // 40, SMT
    RunResult smt = runProfiledSimulation(cfg);
    EXPECT_GT(smt.hostSeconds, single.hostSeconds * 1.1)
        << "SMT co-run must contend for L1/decoder";
}

TEST(Experiment, SpecReferencesHaveDocumentedCharacter)
{
    auto platform = host::xeonConfig();
    RunResult x264 =
        runSpecReference(workloads::specX264(), platform);
    RunResult sjeng =
        runSpecReference(workloads::specDeepsjeng(), platform);
    RunResult mcf = runSpecReference(workloads::specMcf(), platform);

    // 525.x264_r: highest IPC; 505.mcf_r: lowest IPC (§III).
    EXPECT_GT(x264.ipc, sjeng.ipc);
    EXPECT_GT(x264.ipc, 2 * mcf.ipc);
    EXPECT_LE(mcf.ipc, sjeng.ipc + 0.1);

    // mcf is backend bound; x264 is retiring-heavy.
    EXPECT_GT(mcf.topdown.backendBound, 0.4);
    EXPECT_GT(x264.topdown.retiring, 0.5);

    // deepsjeng has the worst LLC behaviour per instruction.
    double sjeng_llc = (double)sjeng.counters.llcMisses /
                       sjeng.counters.insts;
    double x264_llc = (double)x264.counters.llcMisses /
                      x264.counters.insts;
    EXPECT_GT(sjeng_llc, x264_llc);

    // gem5's DSB coverage is poorer than x264's (Fig. 6).
    RunResult gem5 = runProfiledSimulation(baseConfig());
    EXPECT_LT(gem5.counters.dsbCoverage(),
              x264.counters.dsbCoverage());
}

TEST(Experiment, EffectivePlatformAppliesOverrides)
{
    RunConfig cfg = baseConfig();
    cfg.tuning.freqGHzOverride = 1.2;
    auto platform = effectivePlatform(cfg);
    EXPECT_DOUBLE_EQ(platform.freqGHz, 1.2);

    cfg.corun = host::perHardwareThread(cfg.platform);
    platform = effectivePlatform(cfg);
    EXPECT_LT(platform.icache.sizeBytes,
              cfg.platform.icache.sizeBytes);
}
