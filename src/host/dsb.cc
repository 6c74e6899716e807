#include "host/dsb.hh"

namespace g5p::host
{

DsbModel::DsbModel(const DsbGeometry &geometry)
    : ineligiblePct_(geometry.ineligiblePct)
{
    if (geometry.windows > 0)
        tags_.emplace(geometry.windows / geometry.assoc, geometry.assoc,
                      "DSB");
}

} // namespace g5p::host
