#include "host/platforms.hh"

#include "base/logging.hh"

namespace g5p::host
{

HostPlatformConfig
xeonConfig()
{
    HostPlatformConfig cfg;
    cfg.name = "Intel_Xeon";
    cfg.freqGHz = 3.1;
    cfg.turboGHz = 4.1;
    cfg.dispatchWidth = 4;
    cfg.lineBytes = 64;
    cfg.pageBits = 12;
    cfg.icache = {32 * 1024, 8, 64};
    cfg.dcache = {32 * 1024, 8, 64};
    cfg.l2 = {1024 * 1024, 16, 64};            // 1MB private MLC
    cfg.llc = {32 * 1024 * 1024, 16, 64};      // ~35.75MB shared
    cfg.itlb = {128, 8};
    cfg.dtlb = {64, 4};
    cfg.itlbWalkCycles = 30;
    cfg.dtlbWalkCycles = 30;
    cfg.bpred = {16, 4096, 16, 4096};
    cfg.mispredictPenalty = 15;
    cfg.resteerCycles = 6;
    cfg.unknownBranchCycles = 2;
    cfg.dsb = {256, 8, 12};   // ~1.5K µops of decoded cache
    cfg.dsbUopsPerCycle = 6.0;
    cfg.miteUopsPerCycle = 2.6; // x86 legacy decode is the choke
    cfg.l2LatencyCycles = 14;
    cfg.llcLatencyCycles = 50;
    cfg.memLatencyNs = 96;
    cfg.physicalCores = 20;
    cfg.hwThreads = 40;
    cfg.coresPerL2 = 1;
    cfg.coresPerLlc = 20;
    cfg.memBwGBs = 141.0;
    return cfg;
}

namespace
{

/** Shared Firestorm P-core front/back-end, minus chip-level fields. */
HostPlatformConfig
firestormCore()
{
    HostPlatformConfig cfg;
    cfg.freqGHz = 3.2;
    cfg.turboGHz = 0.0;
    cfg.dispatchWidth = 8;
    cfg.lineBytes = 128;
    cfg.pageBits = 14;                          // 16KB pages
    cfg.icache = {192 * 1024, 12, 128};         // 128 sets
    cfg.dcache = {128 * 1024, 8, 128};
    cfg.itlb = {192, 8};                        // 24 sets... (below)
    cfg.dtlb = {160, 5};
    cfg.itlbWalkCycles = 18;
    cfg.dtlbWalkCycles = 18;
    cfg.bpred = {17, 8192, 32, 8192};
    cfg.mispredictPenalty = 13;
    cfg.resteerCycles = 5;
    cfg.unknownBranchCycles = 2;
    cfg.dsb = {0, 1};           // no µop cache
    cfg.dsbUopsPerCycle = 0.0;
    cfg.miteUopsPerCycle = 8.0; // 8 fixed-length decoders
    cfg.l2LatencyCycles = 16;
    cfg.llcLatencyCycles = 90;  // SLC is far but big
    cfg.memLatencyNs = 97;
    return cfg;
}

} // namespace

HostPlatformConfig
m1ProConfig()
{
    HostPlatformConfig cfg = firestormCore();
    cfg.name = "M1_Pro";
    // TLB geometries must divide into power-of-two sets.
    cfg.itlb = {256, 8};
    cfg.dtlb = {256, 8};
    cfg.l2 = {12 * 1024 * 1024, 12, 128};  // per P-cluster
    cfg.llc = {8 * 1024 * 1024, 16, 128};  // SLC
    cfg.physicalCores = 4;                 // performance cores
    cfg.hwThreads = 4;
    cfg.coresPerL2 = 4;
    cfg.coresPerLlc = 4;
    cfg.memBwGBs = 68.0;
    return cfg;
}

HostPlatformConfig
m1UltraConfig()
{
    HostPlatformConfig cfg = firestormCore();
    cfg.name = "M1_Ultra";
    cfg.itlb = {256, 8};
    cfg.dtlb = {256, 8};
    cfg.l2 = {48 * 1024 * 1024, 12, 128};
    cfg.llc = {96 * 1024 * 1024, 12, 128};
    cfg.physicalCores = 16;
    cfg.hwThreads = 16;
    cfg.coresPerL2 = 4;
    cfg.coresPerLlc = 16;
    cfg.memBwGBs = 819.2;
    return cfg;
}

HostPlatformConfig
firesimConfig()
{
    HostPlatformConfig cfg;
    cfg.name = "FireSim";
    cfg.freqGHz = 4.0;
    cfg.turboGHz = 0.0;
    cfg.dispatchWidth = 8;       // Table I: 8-wide superscalar
    cfg.lineBytes = 64;
    cfg.pageBits = 12;
    cfg.icache = {48 * 1024, 12, 64}; // 64 sets (VIPT)
    cfg.dcache = {32 * 1024, 8, 64};
    cfg.l2 = {512 * 1024, 8, 64};
    cfg.llc = {0, 1, 64};        // no L3
    cfg.itlb = {32, 4};
    cfg.dtlb = {32, 4};
    cfg.itlbWalkCycles = 40;
    cfg.dtlbWalkCycles = 40;
    cfg.bpred = {14, 4096, 16, 1024}; // TournamentBP / 4096 BTB
    cfg.mispredictPenalty = 12;
    cfg.resteerCycles = 5;
    cfg.unknownBranchCycles = 2;
    cfg.dsb = {0, 1};            // RISC-V: no µop cache
    cfg.dsbUopsPerCycle = 0.0;
    cfg.miteUopsPerCycle = 8.0;
    cfg.l2LatencyCycles = 20;
    cfg.memLatencyNs = 80;       // DDR3-1600
    cfg.physicalCores = 4;
    cfg.hwThreads = 4;
    cfg.coresPerL2 = 4;
    cfg.coresPerLlc = 4;
    cfg.memBwGBs = 12.8;
    return cfg;
}

HostPlatformConfig
firesimCacheConfig(unsigned l1i_kb, unsigned l1i_assoc,
                   unsigned l1d_kb, unsigned l1d_assoc,
                   unsigned l2_kb, unsigned l2_assoc)
{
    HostPlatformConfig cfg = firesimConfig();
    cfg.name = "FireSim(" + std::to_string(l1i_kb) + "KB/" +
               std::to_string(l1i_assoc) + ":" +
               std::to_string(l1d_kb) + "KB/" +
               std::to_string(l1d_assoc) + ":" +
               std::to_string(l2_kb) + "KB/" +
               std::to_string(l2_assoc) + ")";
    cfg.icache = {l1i_kb * 1024ull, l1i_assoc, 64};
    cfg.dcache = {l1d_kb * 1024ull, l1d_assoc, 64};
    cfg.l2 = {l2_kb * 1024ull, l2_assoc, 64};
    // The paper keeps 64 sets so the VIPT constraint holds.
    g5p_assert(cfg.icache.numSets() == 64 &&
               cfg.dcache.numSets() == 64,
               "Fig. 14 L1 configs must keep 64 sets "
               "(%uKB/%u-way gives %llu)", l1i_kb, l1i_assoc,
               (unsigned long long)cfg.icache.numSets());
    return cfg;
}

std::vector<HostPlatformConfig>
tableIIPlatforms()
{
    return {xeonConfig(), m1ProConfig(), m1UltraConfig()};
}

} // namespace g5p::host
