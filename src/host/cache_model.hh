/**
 * @file
 * Counting cache model for the host side (the "real" machine that
 * runs mg5). Unlike the guest's event-driven mem::Cache, this model
 * tracks tags and hit/miss counts only; latency is charged by the
 * HostCore's cycle accounting. Line size is configurable (64B Xeon,
 * 128B Apple M1 — one of the paper's Fig. 8 explanations).
 */

#ifndef G5P_HOST_CACHE_MODEL_HH
#define G5P_HOST_CACHE_MODEL_HH

#include <compare>
#include <cstdint>

#include "base/types.hh"
#include "host/tag_store.hh"

namespace g5p::host
{

/** Geometry of one host cache level. */
struct HostCacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;

    std::uint64_t numLines() const { return sizeBytes / lineBytes; }
    std::uint64_t numSets() const { return numLines() / assoc; }

    auto operator<=>(const HostCacheGeometry &) const = default;
};

class HostCache
{
  public:
    explicit HostCache(const HostCacheGeometry &geometry);

    /** Look up @p addr; allocates on miss. @return hit. */
    bool
    access(HostAddr addr)
    {
        std::uint64_t line = addr >> lineShift_;
        return tags_.access(tags_.setOf(line), tags_.tagOf(line));
    }

    /** Look up without allocating (probes). */
    bool
    contains(HostAddr addr) const
    {
        std::uint64_t line = addr >> lineShift_;
        return tags_.contains(tags_.setOf(line), tags_.tagOf(line));
    }

    std::uint64_t hits() const { return tags_.hits(); }
    std::uint64_t misses() const { return tags_.misses(); }

    /** Currently valid lines (occupancy, Fig. 9). */
    std::uint64_t validLines() const { return tags_.validEntries(); }

    /** Occupied bytes. */
    std::uint64_t
    occupancyBytes() const
    {
        return validLines() << lineShift_;
    }

  private:
    unsigned lineShift_;
    TagStore tags_;
};

} // namespace g5p::host

#endif // G5P_HOST_CACHE_MODEL_HH
