/**
 * @file
 * Host platform configurations: the paper's Table II machines
 * (Intel_Xeon, M1_Pro, M1_Ultra), the Table I FireSim SoC, and the
 * parameterized FireSim variants swept in Fig. 14.
 */

#ifndef G5P_HOST_PLATFORMS_HH
#define G5P_HOST_PLATFORMS_HH

#include <compare>
#include <string>

#include "host/branch_predictor.hh"
#include "host/cache_model.hh"
#include "host/dsb.hh"
#include "host/tlb_model.hh"

namespace g5p::host
{

/** Complete description of one host machine (for one running core). */
struct HostPlatformConfig
{
    std::string name = "host";

    /** @{ Clock and width. */
    double freqGHz = 3.1;
    double turboGHz = 0.0;     ///< 0 = no turbo
    unsigned dispatchWidth = 4;///< pipeline slots per cycle
    /** @} */

    /** @{ Memory-system geometry. */
    unsigned lineBytes = 64;
    unsigned pageBits = 12;    ///< base page (12 = 4KB, 14 = 16KB)
    HostCacheGeometry icache{32 * 1024, 8, 64};
    HostCacheGeometry dcache{32 * 1024, 8, 64};
    HostCacheGeometry l2{1024 * 1024, 16, 64};
    /** Size 0: no L3. The default is the Xeon preset's geometry:
     *  every host array needs a power-of-two set count. */
    HostCacheGeometry llc{32 * 1024 * 1024, 16, 64};
    /** @} */

    /** @{ TLBs. */
    HostTlbGeometry itlb{128, 8};
    HostTlbGeometry dtlb{64, 4};
    double itlbWalkCycles = 28;
    double dtlbWalkCycles = 28;
    /** @} */

    /** @{ Branch machinery. */
    HostBpredGeometry bpred;
    double mispredictPenalty = 14; ///< recovery (bad-spec) cycles
    double resteerCycles = 6;      ///< front-end refill bubble
    double unknownBranchCycles = 2;///< BTB-miss fetch bubble
    /** @} */

    /** @{ Decode paths. */
    DsbGeometry dsb{512, 8};       ///< windows=0 on M1 (no µop cache)
    double dsbUopsPerCycle = 6.0;
    double miteUopsPerCycle = 2.6; ///< effective legacy-decode supply
    /** @} */

    /** @{ Hierarchy latencies (cycles) and exposure factors. */
    double l2LatencyCycles = 14;
    double llcLatencyCycles = 44;
    double memLatencyNs = 96;
    double icacheMissExposed = 0.36; ///< fetch-ahead hides the rest
    double l2Exposed = 0.40;   ///< fraction of load latency stalling
    double llcExposed = 0.55;
    double memExposed = 0.70;
    double storeExposed = 0.06;
    double beCorePerUop = 0.020; ///< dependency/FU stalls per µop
    /** @} */

    /** @{ Chip topology (for co-run modeling). */
    unsigned physicalCores = 20;
    unsigned hwThreads = 40;   ///< > physicalCores means SMT
    unsigned coresPerL2 = 1;   ///< cores sharing one L2
    unsigned coresPerLlc = 20; ///< cores sharing the LLC
    double memBwGBs = 141.0;
    /** @} */

    /** Field by field, name included: two configs are the same
     *  machine only if every parameter matches. */
    auto operator<=>(const HostPlatformConfig &) const = default;

    /** Effective frequency in Hz (turbo if enabled). */
    double
    effectiveHz(bool turbo = false) const
    {
        double ghz = (turbo && turboGHz > 0) ? turboGHz : freqGHz;
        return ghz * 1e9;
    }

    /** Memory latency in cycles at the effective frequency. */
    double
    memLatencyCycles(bool turbo = false) const
    {
        return memLatencyNs * effectiveHz(turbo) / 1e9;
    }
};

/** Dell Precision 7920, Xeon Gold 6242R (Cascade Lake) — Table II. */
HostPlatformConfig xeonConfig();

/** Apple MacBook Pro, M1 Pro (Firestorm P-core) — Table II. */
HostPlatformConfig m1ProConfig();

/** Apple Mac Studio, M1 Ultra (Firestorm P-core) — Table II. */
HostPlatformConfig m1UltraConfig();

/**
 * FireSim-hosted SoC per Table I: 4GHz 8-wide OoO, 48KB L1I + 32KB
 * L1D, 512KB L2, DDR3, no L3, RISC-V (no µop cache).
 */
HostPlatformConfig firesimConfig();

/**
 * FireSim variant with explicit L1/L2 geometry, as swept in Fig. 14
 * ("i$KB/way : d$KB/way : L2KB/way"). The L1s keep 64 sets (VIPT
 * constraint) so capacity scales via associativity, as in the paper.
 */
HostPlatformConfig firesimCacheConfig(unsigned l1i_kb,
                                      unsigned l1i_assoc,
                                      unsigned l1d_kb,
                                      unsigned l1d_assoc,
                                      unsigned l2_kb,
                                      unsigned l2_assoc);

/** The three Table II platforms, in the paper's order. */
std::vector<HostPlatformConfig> tableIIPlatforms();

} // namespace g5p::host

#endif // G5P_HOST_PLATFORMS_HH
