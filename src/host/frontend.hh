/**
 * @file
 * Host front-end model: instruction fetch (iCache/iTLB), decode
 * sourcing (DSB vs MITE), and branch-resteer accounting. Produces the
 * front-end rows of the Top-Down tree (paper Figs. 3–6).
 */

#ifndef G5P_HOST_FRONTEND_HH
#define G5P_HOST_FRONTEND_HH

#include "host/branch_predictor.hh"
#include "host/cache_model.hh"
#include "host/counters.hh"
#include "host/dsb.hh"
#include "host/tlb_model.hh"
#include "host/uncore.hh"
#include "trace/synthesizer.hh"

namespace g5p::host
{

class FrontendModel
{
  public:
    /**
     * @param config platform parameters
     * @param policy page-size policy (owned by the caller; encodes
     *        THP/EHP code-backing decisions)
     * @param uncore the core's L2/LLC/DRAM (shared with the back-end)
     *        for i-side misses
     */
    FrontendModel(const HostPlatformConfig &config,
                  const PageSizePolicy &policy, Uncore &uncore);

    /**
     * Account the fetch/decode/branch costs of one op. Defined
     * inline below so that the sink loop (HostCore::ops) can fuse the
     * whole model chain — front-end, back-end, caches, TLBs, DSB,
     * predictor, uncore — into one loop body and keep the hot state
     * in registers across ops.
     */
    void onOpInline(const trace::HostOp &op, HostCounters &counters);

  private:
    const HostPlatformConfig &config_;
    Uncore &uncore_;
    HostCache icache_;
    HostTlb itlb_;
    HostBranchPredictor bpred_;
    DsbModel dsb_;

    /** log2(config.lineBytes): fetch-line numbering by shift, not a
     *  per-op 64-bit division. */
    unsigned lineShift_;

    /**
     * @{ Decode-bandwidth penalty per µop for each supply path,
     * precomputed once as exactly the per-op expression
     * `1.0 / supply - 1.0 / dispatchWidth` (0 when the path supplies
     * at least the dispatch width, where the original never charged).
     * Multiplying by the same factor the per-op code recomputed every
     * instruction keeps the charged cycles bit-identical while
     * removing two FP divisions per instruction.
     */
    double dsbPenaltyPerUop_ = 0.0;
    double mitePenaltyPerUop_ = 0.0;
    /** @} */

    HostAddr lastLine_ = ~HostAddr(0);
    HostAddr lastPage_ = ~HostAddr(0);
    HostAddr lastWindow_ = ~HostAddr(0);
    bool windowFromDsb_ = false;
};

inline void
FrontendModel::onOpInline(const trace::HostOp &op,
                          HostCounters &counters)
{
    using trace::HostOp;

    // --- Fetch: new cache line => iCache (and maybe iTLB) lookup.
    HostAddr line = op.pc >> lineShift_;
    if (line != lastLine_) {
        lastLine_ = line;
        ++counters.icacheAccesses;
        if (!icache_.access(op.pc)) {
            ++counters.icacheMisses;
            auto mem = uncore_.access(op.pc);
            // The fetch queue and next-line prefetch hide part of an
            // ifetch miss; the exposed fraction starves the decoder.
            counters.feLatIcacheCycles +=
                mem.latencyCycles * config_.icacheMissExposed;
        }

        HostAddr page = op.pc >> 12; // page transitions, checked at
                                     // the finest granularity
        if (page != lastPage_) {
            lastPage_ = page;
            ++counters.itlbAccesses;
            if (!itlb_.access(op.pc)) {
                ++counters.itlbMisses;
                counters.feLatItlbCycles += config_.itlbWalkCycles;
            }
        }
    }

    // --- Decode source: DSB window hit or legacy MITE path.
    HostAddr window = op.pc / DsbModel::windowBytes;
    if (window != lastWindow_) {
        lastWindow_ = window;
        windowFromDsb_ = dsb_.access(op.pc);
    }
    if (windowFromDsb_) {
        counters.uopsFromDsb += op.uops;
        if (dsbPenaltyPerUop_ > 0)
            counters.feBwDsbCycles += op.uops * dsbPenaltyPerUop_;
    } else {
        counters.uopsFromMite += op.uops;
        if (mitePenaltyPerUop_ > 0)
            counters.feBwMiteCycles += op.uops * mitePenaltyPerUop_;
    }

    // --- Branch resolution and resteers.
    if (op.kind == HostOp::Kind::Branch) {
        ++counters.branches;
        BranchResolution res = bpred_.resolve(op);
        if (res.mispredicted) {
            ++counters.mispredicts;
            counters.badSpecCycles += config_.mispredictPenalty;
            counters.feLatMispredictCycles += config_.resteerCycles;
        } else if (res.unknownBranch) {
            ++counters.unknownBranches;
            counters.feLatUnknownCycles +=
                config_.unknownBranchCycles;
        }
        if (op.taken) {
            // Redirected fetch: next op starts a new line/window.
            lastLine_ = ~HostAddr(0);
            lastWindow_ = ~HostAddr(0);
        }
    }
}

} // namespace g5p::host

#endif // G5P_HOST_FRONTEND_HH
