#include "host/uncore.hh"

namespace g5p::host
{

Uncore::Uncore(const HostPlatformConfig &config)
    : config_(config), l2_(config.l2)
{
    if (config.llc.sizeBytes > 0)
        llc_.emplace(config.llc);
}

Uncore::MemResult
Uncore::access(HostAddr addr)
{
    if (l2_.access(addr))
        return {Level::L2, config_.l2LatencyCycles};

    if (llc_ && llc_->access(addr))
        return {Level::Llc, config_.llcLatencyCycles};

    dramBytes_ += config_.lineBytes;
    return {Level::Memory, config_.memLatencyCycles()};
}

} // namespace g5p::host
