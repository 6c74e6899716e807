/**
 * @file
 * MinorCpu: a four-stage in-order pipeline (Fetch1, Fetch2/Decode,
 * Execute, Writeback) after gem5's Minor model. Fetch runs ahead along
 * the predicted path; execute is strictly in program order with a
 * register scoreboard allowing execution to continue past outstanding
 * loads until a use; memory uses the detailed timing model.
 */

#ifndef G5P_CPU_MINOR_CPU_HH
#define G5P_CPU_MINOR_CPU_HH

#include <deque>

#include "cpu/base_cpu.hh"
#include "cpu/o3/bpred.hh"
#include "mem/physical.hh"

namespace g5p::cpu
{

/** Minor pipeline parameters. */
struct MinorParams
{
    unsigned inputBufferSize = 4; ///< decoded-inst queue depth

    /**
     * In-flight ifetches. Must stay 1: L1I responses can return out
     * of order across cache lines, and Minor decodes/executes in
     * fetch order (gem5's Minor serializes Fetch1 the same way).
     */
    unsigned maxOutstandingFetches = 1;
    unsigned maxOutstandingLoads = 4;
    unsigned maxOutstandingStores = 2;
    BpredParams bpred{.tableBits = 10, .btbEntries = 512,
                      .rasEntries = 8};
};

class MinorCpu : public BaseCpu
{
  public:
    MinorCpu(sim::Simulator &sim, const std::string &name,
             const sim::ClockDomain &domain, const CpuParams &params,
             const MinorParams &minor_params,
             mem::PhysicalMemory &physmem);
    ~MinorCpu() override;

    void activate() override;

    const char *modelTag() const override { return "minor"; }

    void regStats() override;

    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(const sim::CheckpointIn &cp) override;

  protected:
    isa::Fault execReadMem(Addr vaddr, unsigned size) override;
    isa::Fault execWriteMem(Addr vaddr, unsigned size,
                            std::uint64_t data) override;

    G5P_HOT void recvInstResp(mem::PacketPtr pkt) override;
    G5P_HOT void recvDataResp(mem::PacketPtr pkt) override;

  private:
    struct FetchedInst
    {
        isa::StaticInstPtr inst;
        Addr pc = 0;
        Addr predNpc = 0;
        std::uint64_t epoch = 0;
    };

    /** Per-fetch bookkeeping carried through the memory system. */
    struct FetchReq
    {
        Addr vpc;
        Addr paddr;
        unsigned bytes; ///< fetch-block length
        std::uint64_t epoch;
    };

    /** An outstanding load awaiting its dcache response. */
    struct InflightLoad
    {
        isa::StaticInstPtr inst;
        std::uint64_t data = 0; ///< functionally read at issue
    };

    /** Advance all pipeline stages by one cycle. */
    void tick();

    void tryExecute();
    void tryFetch();

    /** Redirect fetch after a mispredicted/taken branch. */
    void redirect(Addr npc);

    /** True if any source of @p inst is scoreboard-busy. */
    bool sourcesBusy(const isa::StaticInst &inst) const;

    /** Reschedule the tick event if work remains. */
    void maybeReschedule();

    MinorParams minorParams_;
    mem::PhysicalMemory &physmem_;
    CpuExecContext ctx_;
    BranchPredictor bpred_;

    Addr fetchPc_;
    std::uint64_t fetchEpoch_ = 0;
    unsigned fetchesInFlight_ = 0;

    /** Sender state of in-flight fetches and loads. */
    InflightRecords<FetchReq> fetchReqs_;
    InflightRecords<InflightLoad> inflightLoads_;

    std::deque<FetchedInst> inputBuffer_;

    bool scoreboard_[isa::numArchRegs] = {};
    isa::StaticInstPtr pendingLoadInst_; ///< set before execute()
    unsigned outstandingLoads_ = 0;
    unsigned outstandingStores_ = 0;

    /** Set when execute stops the machine (halt). */
    bool stopping_ = false;

    sim::MemberEventWrapper<&MinorCpu::tick> tickEvent_;

    sim::stats::Scalar branchMispredicts_;
    sim::stats::Scalar loadUseStalls_;
    sim::stats::Scalar fetchBubbles_;
};

} // namespace g5p::cpu

#endif // G5P_CPU_MINOR_CPU_HH
