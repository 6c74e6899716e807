#include "host/frontend.hh"

#include "base/addr_utils.hh"
#include "base/logging.hh"

namespace g5p::host
{

namespace
{

/** The per-op decode penalty factor, computed once per supply path. */
double
bwPenaltyPerUop(double supply, unsigned dispatch_width)
{
    if (supply > 0 && supply < dispatch_width)
        return 1.0 / supply - 1.0 / dispatch_width;
    return 0.0;
}

} // namespace

FrontendModel::FrontendModel(const HostPlatformConfig &config,
                             const PageSizePolicy &policy,
                             Uncore &uncore)
    : config_(config),
      uncore_(uncore),
      icache_(config.icache),
      itlb_(config.itlb, &policy),
      bpred_(config.bpred),
      dsb_(config.dsb),
      lineShift_(floorLog2(config.lineBytes)),
      dsbPenaltyPerUop_(bwPenaltyPerUop(config.dsbUopsPerCycle,
                                        config.dispatchWidth)),
      mitePenaltyPerUop_(bwPenaltyPerUop(config.miteUopsPerCycle,
                                         config.dispatchWidth))
{
    g5p_assert(isPowerOf2(config.lineBytes),
               "fetch line size must be a power of two (%u)",
               config.lineBytes);
}

} // namespace g5p::host
