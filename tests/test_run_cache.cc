/**
 * @file
 * The figure benches' run cache (bench/bench_common.hh) must run a
 * new point whenever any field that decides a run's result changes,
 * and reuse a point whose fields all match. A key that leaves a field
 * out prints one run as many rows of a sweep over that field.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "bench_common.hh"

using namespace g5p;

TEST(RunCache, EveryResultFieldKeysANewRun)
{
    bench::BenchOptions opts;
    opts.scale = 0.01;
    opts.maxGuestInsts = 200;
    bench::RunCache cache(opts);

    core::RunConfig base;
    base.workload = "sieve";
    base.platform = host::xeonConfig();
    const core::RunResult *baseRun = &cache.get(base);
    EXPECT_EQ(&cache.get(base), baseRun);

    // A profiler observes a run; it does not make a new one.
    sim::Profiler profiler(sim::ProfilerConfig{});
    core::RunConfig observed = base;
    observed.profiler = &profiler;
    EXPECT_EQ(&cache.get(observed), baseRun);

    using Change = std::function<void(core::RunConfig &)>;
    const std::vector<std::pair<const char *, Change>> changes = {
        {"workload", [](auto &c) { c.workload = "water_nsquared"; }},
        {"cpuModel", [](auto &c) { c.cpuModel = os::CpuModel::Timing; }},
        {"mode", [](auto &c) { c.mode = os::SimMode::FS; }},
        {"guestCpus", [](auto &c) { c.guestCpus = 2; }},
        {"fastForwardInsts", [](auto &c) { c.fastForwardInsts = 50; }},
        {"seed", [](auto &c) { c.seed = 2; }},
        {"platform.name", [](auto &c) { c.platform.name = "other"; }},
        {"freqGHz", [](auto &c) { c.platform.freqGHz = 2.0; }},
        {"turboGHz", [](auto &c) { c.platform.turboGHz = 4.5; }},
        {"dispatchWidth", [](auto &c) { c.platform.dispatchWidth = 6; }},
        {"lineBytes", [](auto &c) { c.platform.lineBytes = 128; }},
        {"pageBits", [](auto &c) { c.platform.pageBits = 14; }},
        {"icache.sizeBytes",
         [](auto &c) { c.platform.icache.sizeBytes = 64 * 1024; }},
        {"icache.assoc", [](auto &c) { c.platform.icache.assoc = 4; }},
        {"icache.lineBytes",
         [](auto &c) { c.platform.icache.lineBytes = 128; }},
        {"dcache.sizeBytes",
         [](auto &c) { c.platform.dcache.sizeBytes = 64 * 1024; }},
        {"l2.sizeBytes",
         [](auto &c) { c.platform.l2.sizeBytes = 2 * 1024 * 1024; }},
        {"llc.sizeBytes",
         [](auto &c) { c.platform.llc.sizeBytes = 16 * 1024 * 1024; }},
        {"itlb.entries", [](auto &c) { c.platform.itlb.entries = 256; }},
        {"itlb.assoc", [](auto &c) { c.platform.itlb.assoc = 4; }},
        {"dtlb.entries", [](auto &c) { c.platform.dtlb.entries = 128; }},
        {"itlbWalkCycles",
         [](auto &c) { c.platform.itlbWalkCycles = 40; }},
        {"dtlbWalkCycles",
         [](auto &c) { c.platform.dtlbWalkCycles = 40; }},
        {"bpred.tableBits",
         [](auto &c) { c.platform.bpred.tableBits = 12; }},
        {"bpred.btbEntries",
         [](auto &c) { c.platform.bpred.btbEntries = 1024; }},
        {"bpred.rasEntries",
         [](auto &c) { c.platform.bpred.rasEntries = 32; }},
        {"bpred.indirectEntries",
         [](auto &c) { c.platform.bpred.indirectEntries = 64; }},
        {"mispredictPenalty",
         [](auto &c) { c.platform.mispredictPenalty = 20; }},
        {"resteerCycles", [](auto &c) { c.platform.resteerCycles = 8; }},
        {"unknownBranchCycles",
         [](auto &c) { c.platform.unknownBranchCycles = 3; }},
        {"dsb.windows", [](auto &c) { c.platform.dsb.windows = 2048; }},
        {"dsb.assoc", [](auto &c) { c.platform.dsb.assoc = 4; }},
        {"dsb.ineligiblePct",
         [](auto &c) { c.platform.dsb.ineligiblePct = 10; }},
        {"dsbUopsPerCycle",
         [](auto &c) { c.platform.dsbUopsPerCycle = 4.0; }},
        {"miteUopsPerCycle",
         [](auto &c) { c.platform.miteUopsPerCycle = 6.0; }},
        {"l2LatencyCycles",
         [](auto &c) { c.platform.l2LatencyCycles = 20; }},
        {"llcLatencyCycles",
         [](auto &c) { c.platform.llcLatencyCycles = 60; }},
        {"memLatencyNs", [](auto &c) { c.platform.memLatencyNs = 120; }},
        {"icacheMissExposed",
         [](auto &c) { c.platform.icacheMissExposed = 0.5; }},
        {"l2Exposed", [](auto &c) { c.platform.l2Exposed = 0.5; }},
        {"llcExposed", [](auto &c) { c.platform.llcExposed = 0.6; }},
        {"memExposed", [](auto &c) { c.platform.memExposed = 0.8; }},
        {"storeExposed", [](auto &c) { c.platform.storeExposed = 0.1; }},
        {"beCorePerUop", [](auto &c) { c.platform.beCorePerUop = 0.03; }},
        {"physicalCores", [](auto &c) { c.platform.physicalCores = 10; }},
        {"hwThreads", [](auto &c) { c.platform.hwThreads = 20; }},
        {"coresPerL2", [](auto &c) { c.platform.coresPerL2 = 2; }},
        {"coresPerLlc", [](auto &c) { c.platform.coresPerLlc = 10; }},
        {"memBwGBs", [](auto &c) { c.platform.memBwGBs = 60; }},
        {"corun.processes", [](auto &c) { c.corun.processes = 2; }},
        {"corun.smt", [](auto &c) { c.corun.smt = true; }},
        {"tuning.hugePages",
         [](auto &c) { c.tuning.hugePages = core::HugePageMode::Thp; }},
        {"tuning.optO3", [](auto &c) { c.tuning.optO3 = true; }},
        {"tuning.hotLayout", [](auto &c) { c.tuning.hotLayout = true; }},
        {"tuning.freqGHzOverride",
         [](auto &c) { c.tuning.freqGHzOverride = 2.5; }},
        {"tuning.turbo", [](auto &c) { c.tuning.turbo = true; }},
        {"run.faultSeed", [](auto &c) { c.run.faultSeed = 7; }},
    };

    std::set<const core::RunResult *> runs{baseRun};
    for (const auto &[field, change] : changes) {
        core::RunConfig cfg = base;
        change(cfg);
        const core::RunResult *run = &cache.get(cfg);
        EXPECT_TRUE(runs.insert(run).second)
            << "changing " << field << " reused an earlier run";
        EXPECT_EQ(&cache.get(cfg), run)
            << "the same " << field << " change ran again";
    }
}
