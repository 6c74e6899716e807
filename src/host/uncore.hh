/**
 * @file
 * Uncore: L2, LLC, and the DRAM channel behind one HostCore's L1
 * misses. Every HostCore owns its own; co-run contention is modeled
 * by partitioning the shared levels in the platform config
 * (host/corun.cc), not by sharing an Uncore.
 */

#ifndef G5P_HOST_UNCORE_HH
#define G5P_HOST_UNCORE_HH

#include <optional>

#include "host/cache_model.hh"
#include "host/platforms.hh"

namespace g5p::host
{

class Uncore
{
  public:
    explicit Uncore(const HostPlatformConfig &config);

    /** Where an L1 miss was satisfied. */
    enum class Level : std::uint8_t { L2, Llc, Memory };

    struct MemResult
    {
        Level level;
        double latencyCycles;
    };

    /** Service one L1 miss. Out-of-line on purpose: L1 misses are
     *  the cold path, and keeping this out of the batched sink loop
     *  keeps that loop compact. */
    MemResult access(HostAddr addr);

    /** @{ Counters. */
    std::uint64_t l2Misses() const { return l2_.misses(); }
    std::uint64_t
    llcMisses() const
    {
        return llc_ ? llc_->misses() : l2_.misses();
    }
    std::uint64_t dramBytes() const { return dramBytes_; }

    /**
     * LLC-resident footprint of this process (Fig. 9). Lines are
     * never invalidated, so this is also its peak.
     */
    std::uint64_t
    llcOccupancyBytes() const
    {
        return llc_ ? llc_->occupancyBytes() : 0;
    }
    /** @} */

  private:
    const HostPlatformConfig config_;
    HostCache l2_;
    /** Empty on machines without an LLC (llc.sizeBytes == 0). */
    std::optional<HostCache> llc_;
    std::uint64_t dramBytes_ = 0;
};

} // namespace g5p::host

#endif // G5P_HOST_UNCORE_HH
