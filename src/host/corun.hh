/**
 * @file
 * Co-run and SMT contention modeling (paper Fig. 1).
 *
 * When K gem5 processes co-run, shared cache levels are effectively
 * partitioned; with SMT, two hardware threads split one core's
 * private L1s, TLBs, µop cache, and fetch bandwidth. The model
 * transforms the single-process platform config into the
 * per-process effective machine, which is how way-partitioned shared
 * resources behave to first order.
 */

#ifndef G5P_HOST_CORUN_HH
#define G5P_HOST_CORUN_HH

#include <compare>

#include "host/platforms.hh"

namespace g5p::host
{

/** Co-run scenario. */
struct CorunScenario
{
    unsigned processes = 1;  ///< concurrent gem5 processes
    bool smt = false;        ///< two processes per physical core

    auto operator<=>(const CorunScenario &) const = default;
};

/** The three Fig. 1 scenarios for a platform. */
CorunScenario singleProcess();
CorunScenario perPhysicalCore(const HostPlatformConfig &config);
CorunScenario perHardwareThread(const HostPlatformConfig &config);

/**
 * Effective per-process machine for @p scenario on @p config.
 * Shared L2/LLC capacity is divided among the processes sharing it;
 * SMT additionally halves the core-private front-end resources.
 */
HostPlatformConfig applyCorun(const HostPlatformConfig &config,
                              const CorunScenario &scenario);

} // namespace g5p::host

#endif // G5P_HOST_CORUN_HH
