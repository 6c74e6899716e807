#include "host/backend.hh"

namespace g5p::host
{

BackendModel::BackendModel(const HostPlatformConfig &config,
                           const PageSizePolicy &policy,
                           Uncore &uncore)
    : config_(config),
      uncore_(uncore),
      dcache_(config.dcache),
      dtlb_(config.dtlb, &policy)
{
}

} // namespace g5p::host
