/**
 * @file
 * O3Cpu: out-of-order superscalar model loosely based on the Alpha
 * 21264 (as gem5's O3), with fetch along the predicted path, rename,
 * an issue queue with a functional-unit pool, a load/store queue with
 * forwarding, a reorder buffer with in-order commit, and
 * mispredict-driven squash. See cpu/o3/dyn_inst.hh for the
 * oracle-execute-at-dispatch design.
 */

#ifndef G5P_CPU_O3_O3_CPU_HH
#define G5P_CPU_O3_O3_CPU_HH

#include <deque>

#include "cpu/base_cpu.hh"
#include "cpu/o3/bpred.hh"
#include "cpu/o3/iq.hh"
#include "cpu/o3/lsq.hh"
#include "cpu/o3/rename.hh"
#include "cpu/o3/rob.hh"
#include "mem/physical.hh"

namespace g5p::cpu
{

/** O3 machine configuration (defaults follow gem5's O3CPU). */
struct O3Params
{
    unsigned fetchWidth = 4;     ///< insts per fetch block (32B)
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned robEntries = 128;
    unsigned iqEntries = 64;
    unsigned lqEntries = 32;
    unsigned sqEntries = 32;
    unsigned numPhysRegs = 160;
    unsigned fetchQueueSize = 16;
    unsigned maxOutstandingStores = 8;
    Cycles frontendDepth = 4;    ///< fetch-to-dispatch stages
    o3::FuPoolParams fu;
    BpredParams bpred{.tableBits = 12, .btbEntries = 4096,
                      .rasEntries = 16};
};

class O3Cpu : public BaseCpu
{
  public:
    O3Cpu(sim::Simulator &sim, const std::string &name,
          const sim::ClockDomain &domain, const CpuParams &params,
          const O3Params &o3_params, mem::PhysicalMemory &physmem);
    ~O3Cpu() override;

    void activate() override;

    const char *modelTag() const override { return "o3"; }

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
    /** In-flight instruction-fetch bookkeeping. */
    struct FetchBlock
    {
        Addr vaddr;
        Addr paddr;
        unsigned bytes;
        std::uint64_t epoch;
    };

    void tick();
    void commitStage();
    void writebackStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    /** Dispatch-time oracle execution of one right-path inst. */
    void oracleExecute(o3::DynInst &di);

    /** Resolve a mispredicted branch: squash + redirect. */
    void resolveMispredict(o3::DynInst &branch);

    /** Issue the dcache read for a right-path load. */
    void issueLoad(const o3::DynInstPtr &di);

    /** Issue the dcache write for a committing store. */
    void issueStore(const o3::DynInst &di);

    void maybeReschedule();

    /** One-line textual record of a DynInst (checkpointing). */
    std::string encodeDynInst(const o3::DynInst &di) const;

    /** Inverse of encodeDynInst; re-decodes via the decode cache. */
    o3::DynInstPtr decodeDynInst(const std::string &record);

    O3Params o3Params_;
    mem::PhysicalMemory &physmem_;
    CpuExecContext ctx_;
    BranchPredictor bpred_;

    o3::Rob rob_;
    o3::IssueQueue iq_;
    o3::Lsq lsq_;
    o3::RenameMap rename_;

    /** Sender state of the in-flight fetch and loads. */
    InflightRecords<FetchBlock> fetchBlocks_;
    InflightRecords<o3::DynInstPtr> loadHolders_;

    std::deque<o3::DynInstPtr> fetchQueue_;
    std::deque<Cycles> fetchReadyCycle_; ///< parallel: earliest dispatch

    Addr fetchPc_;
    std::uint64_t fetchEpoch_ = 0;
    bool fetchInFlight_ = false;
    bool fetchStopped_ = false;
    std::uint64_t nextSeq_ = 1;

    bool wrongPathMode_ = false;
    bool stopping_ = false;
    unsigned outstandingStores_ = 0;

    /** Dispatch-time memory capture (filled by execRead/WriteMem). */
    struct PendingMem
    {
        Addr paddr = 0;
        unsigned size = 0;
        Cycles tlbLatency = 0;
        std::uint64_t data = 0;
        bool valid = false;
    } dispatchMem_;

    sim::MemberEventWrapper<&O3Cpu::tick> tickEvent_;

    sim::stats::Scalar branchMispredicts_;
    sim::stats::Scalar squashedInsts_;
    sim::stats::Scalar wrongPathFetches_;
    sim::stats::Scalar robFullStalls_;
    sim::stats::Scalar iqFullStalls_;
    sim::stats::Scalar storeForwards_;
};

} // namespace g5p::cpu

#endif // G5P_CPU_O3_O3_CPU_HH
