#include "host/tlb_model.hh"

#include "base/logging.hh"

namespace g5p::host
{

void
PageSizePolicy::addHugeRegion(HostAddr start, HostAddr end,
                              double coverage)
{
    if (coverage < 0)
        coverage = 0;
    if (coverage > 1)
        coverage = 1;
    regions_.push_back(
        Region{start, end, (std::uint32_t)(coverage * 100.0 + 0.5)});
}

HostTlb::HostTlb(const HostTlbGeometry &geometry,
                 const PageSizePolicy *policy)
    : policy_(policy),
      tags_(geometry.entries / geometry.assoc, geometry.assoc, "TLB")
{
    g5p_assert(policy_, "HostTlb needs a page-size policy");
}

} // namespace g5p::host
