/**
 * @file
 * Host back-end model: d-side TLB and L1, with L1 misses serviced by
 * the core's Uncore (shared with the front-end). Load-miss latencies
 * are partially hidden by the out-of-order engine; exposure factors
 * per level come from the platform config.
 */

#ifndef G5P_HOST_BACKEND_HH
#define G5P_HOST_BACKEND_HH

#include "host/cache_model.hh"
#include "host/counters.hh"
#include "host/tlb_model.hh"
#include "host/uncore.hh"
#include "trace/synthesizer.hh"

namespace g5p::host
{

class BackendModel
{
  public:
    BackendModel(const HostPlatformConfig &config,
                 const PageSizePolicy &policy, Uncore &uncore);

    /** Account the memory/core costs of one op; inline below for
     *  the sink loop (HostCore::ops). */
    void onOpInline(const trace::HostOp &op, HostCounters &counters);

  private:
    const HostPlatformConfig &config_;
    Uncore &uncore_;
    HostCache dcache_;
    HostTlb dtlb_;
};

inline void
BackendModel::onOpInline(const trace::HostOp &op,
                         HostCounters &counters)
{
    using trace::HostOp;

    // Dependency/functional-unit pressure: small per-µop cost.
    counters.beCoreCycles += op.uops * config_.beCorePerUop;

    bool is_load = op.kind == HostOp::Kind::Load;
    bool is_store = op.kind == HostOp::Kind::Store;
    if (!is_load && !is_store)
        return;

    if (is_load)
        ++counters.loads;
    else
        ++counters.stores;

    ++counters.dtlbAccesses;
    if (!dtlb_.access(op.dataAddr)) {
        ++counters.dtlbMisses;
        // Walks overlap with execution about half the time.
        counters.beMemCycles += config_.dtlbWalkCycles * 0.5;
    }

    ++counters.dcacheAccesses;
    if (dcache_.access(op.dataAddr))
        return;
    ++counters.dcacheMisses;

    auto mem = uncore_.access(op.dataAddr);
    double exposed;
    switch (mem.level) {
      case Uncore::Level::L2:
        exposed = config_.l2Exposed;
        break;
      case Uncore::Level::Llc:
        exposed = config_.llcExposed;
        break;
      default:
        exposed = config_.memExposed;
        break;
    }
    if (is_store)
        exposed = config_.storeExposed; // hidden by the store buffer
    counters.beMemCycles += mem.latencyCycles * exposed;
}

} // namespace g5p::host

#endif // G5P_HOST_BACKEND_HH
