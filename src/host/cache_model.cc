#include "host/cache_model.hh"

#include "base/addr_utils.hh"
#include "base/logging.hh"

namespace g5p::host
{

namespace
{

unsigned
lineShift(unsigned line_bytes)
{
    g5p_assert(isPowerOf2(line_bytes),
               "line size must be a power of two (%u)", line_bytes);
    return floorLog2(line_bytes);
}

} // namespace

HostCache::HostCache(const HostCacheGeometry &geometry)
    : lineShift_(lineShift(geometry.lineBytes)),
      tags_(geometry.numSets(), geometry.assoc, "host cache")
{
}

} // namespace g5p::host
