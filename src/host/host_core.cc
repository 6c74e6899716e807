#include "host/host_core.hh"

namespace g5p::host
{

HostCore::HostCore(const HostPlatformConfig &config,
                   const PageSizePolicy &policy)
    : config_(config),
      uncore_(config_),
      frontend_(config_, policy, uncore_),
      backend_(config_, policy, uncore_)
{
    for (std::size_t u = 0; u < uopCycles_.size(); ++u)
        uopCycles_[u] = (double)u / (double)config_.dispatchWidth;
}

void
HostCore::ops(const trace::HostOp *batch, std::size_t count)
{
    // onOpInline is visible here, so the whole model chain
    // (front-end, back-end, caches, TLBs, DSB, predictor, uncore)
    // fuses into this one loop: no per-op calls at all.
    HostCounters &counters = counters_;
    FrontendModel &frontend = frontend_;
    BackendModel &backend = backend_;
    const double *uop_cycles = uopCycles_.data();
    for (std::size_t i = 0; i < count; ++i) {
        const trace::HostOp &op = batch[i];
        ++counters.insts;
        counters.uops += op.uops;
        counters.baseCycles += uop_cycles[op.uops];
        frontend.onOpInline(op, counters);
        backend.onOpInline(op, counters);
    }
}

HostCounters
HostCore::counters() const
{
    HostCounters out = counters_;
    out.l2Misses = uncore_.l2Misses();
    out.llcMisses = uncore_.llcMisses();
    out.dramBytes = uncore_.dramBytes();
    out.llcOccupancyBytes = uncore_.llcOccupancyBytes();
    return out;
}

TopdownBreakdown
HostCore::topdown() const
{
    return computeTopdown(counters(), config_.dispatchWidth);
}

TopdownBreakdown
computeTopdown(const HostCounters &counters, unsigned width)
{
    TopdownBreakdown td;
    double cycles = counters.totalCycles();
    if (cycles <= 0)
        return td;
    double slots = cycles * (double)width;

    td.retiring = (double)counters.uops / slots;
    td.badSpeculation = counters.badSpecCycles * width / slots;

    td.feIcache = counters.feLatIcacheCycles * width / slots;
    td.feItlb = counters.feLatItlbCycles * width / slots;
    td.feMispredictResteers =
        counters.feLatMispredictCycles * width / slots;
    td.feUnknownBranches = counters.feLatUnknownCycles * width / slots;
    td.feClearResteers = counters.feLatClearCycles * width / slots;
    td.frontendLatency = td.feIcache + td.feItlb +
                         td.feMispredictResteers +
                         td.feUnknownBranches + td.feClearResteers;

    td.feMite = counters.feBwMiteCycles * width / slots;
    td.feDsb = counters.feBwDsbCycles * width / slots;
    td.frontendBandwidth = td.feMite + td.feDsb;

    td.beMemory = counters.beMemCycles * width / slots;
    td.beCore = counters.beCoreCycles * width / slots;
    td.backendBound = td.beMemory + td.beCore;
    return td;
}

} // namespace g5p::host
