/**
 * @file
 * Host performance counters and Top-Down slot accounting.
 *
 * The accounting follows Yasin's Top-Down method exactly: every
 * pipeline slot (dispatchWidth per cycle) is either retiring, wasted
 * by bad speculation, starved by the front-end (latency or
 * bandwidth), or stalled by the back-end. The model accumulates
 * *cycles* per stall category; slots are cycles × width, so the
 * categories sum to the total slots by construction (a property the
 * test suite checks).
 */

#ifndef G5P_HOST_COUNTERS_HH
#define G5P_HOST_COUNTERS_HH

#include <cstdint>

namespace g5p::host
{

/** Raw event counts and cycle accumulators for one profiled run. */
struct HostCounters
{
    /** @{ Instruction stream. */
    std::uint64_t insts = 0;
    std::uint64_t uops = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    /** @} */

    /** @{ Cycle accumulators (see file header). */
    double baseCycles = 0;        ///< uops / width (ideal issue)
    double feLatIcacheCycles = 0;
    double feLatItlbCycles = 0;
    double feLatMispredictCycles = 0; ///< mispredict resteers
    double feLatUnknownCycles = 0;    ///< unknown branches
    double feLatClearCycles = 0;      ///< clear resteers
    double feBwMiteCycles = 0;
    double feBwDsbCycles = 0;
    double badSpecCycles = 0;
    double beMemCycles = 0;
    double beCoreCycles = 0;
    /** @} */

    /** @{ Cache/TLB/BP events. */
    std::uint64_t icacheAccesses = 0;
    std::uint64_t icacheMisses = 0;
    std::uint64_t dcacheAccesses = 0;
    std::uint64_t dcacheMisses = 0;
    std::uint64_t itlbAccesses = 0;
    std::uint64_t itlbMisses = 0;
    std::uint64_t dtlbAccesses = 0;
    std::uint64_t dtlbMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t unknownBranches = 0;
    std::uint64_t uopsFromDsb = 0;
    std::uint64_t uopsFromMite = 0;
    /** @} */

    /** @{ Uncore. */
    std::uint64_t dramBytes = 0;
    std::uint64_t llcOccupancyBytes = 0; ///< peak resident footprint
    /** @} */

    /** @{ Derived totals. */
    double
    feLatCycles() const
    {
        return feLatIcacheCycles + feLatItlbCycles +
               feLatMispredictCycles + feLatUnknownCycles +
               feLatClearCycles;
    }

    double feBwCycles() const
    { return feBwMiteCycles + feBwDsbCycles; }

    double beCycles() const { return beMemCycles + beCoreCycles; }

    double
    totalCycles() const
    {
        return baseCycles + feLatCycles() + feBwCycles() +
               badSpecCycles + beCycles();
    }

    double
    ipc() const
    {
        double c = totalCycles();
        return c > 0 ? (double)insts / c : 0.0;
    }

    double
    dsbCoverage() const
    {
        std::uint64_t total = uopsFromDsb + uopsFromMite;
        return total ? (double)uopsFromDsb / (double)total : 0.0;
    }
    /** @} */
};

/** Top-Down level-1/level-2 fractions (of total slots). */
struct TopdownBreakdown
{
    double retiring = 0;
    double badSpeculation = 0;
    double frontendLatency = 0;
    double frontendBandwidth = 0;
    double backendBound = 0;

    /** @{ Front-end latency sub-events (fractions of total slots). */
    double feIcache = 0;
    double feItlb = 0;
    double feMispredictResteers = 0;
    double feUnknownBranches = 0;
    double feClearResteers = 0;
    /** @} */

    /** @{ Front-end bandwidth sub-events. */
    double feMite = 0;
    double feDsb = 0;
    /** @} */

    /** @{ Back-end split. */
    double beMemory = 0;
    double beCore = 0;
    /** @} */

    double frontendBound() const
    { return frontendLatency + frontendBandwidth; }

    /** Sums retiring+badSpec+FE+BE (should be ~1.0). */
    double
    total() const
    {
        return retiring + badSpeculation + frontendBound() +
               backendBound;
    }
};

/** Compute the breakdown for a machine of @p width slots/cycle. */
TopdownBreakdown computeTopdown(const HostCounters &counters,
                                unsigned width);

} // namespace g5p::host

#endif // G5P_HOST_COUNTERS_HH
