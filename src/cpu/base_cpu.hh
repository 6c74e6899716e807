/**
 * @file
 * BaseCpu: shared state and plumbing for mg5's four CPU models
 * (Atomic, Timing, Minor, O3), mirroring gem5's BaseCPU.
 *
 * A CPU owns the architectural register file, the PC, a decoder with
 * decode cache, I/D cache ports, and I/D TLB references. Subclasses
 * implement the fetch/execute machinery at their level of detail; the
 * paper's central observation — that detail level drives the
 * simulator's own instruction footprint — emerges from how much of
 * this machinery each model touches per simulated instruction.
 */

#ifndef G5P_CPU_BASE_CPU_HH
#define G5P_CPU_BASE_CPU_HH

#include <algorithm>
#include <functional>
#include <list>

#include "isa/decoder.hh"
#include "isa/inst.hh"
#include "mem/port.hh"
#include "mem/tlb.hh"
#include "sim/clocked_object.hh"

namespace g5p::cpu
{

class BaseCpu;

/** OS-side syscall service interface (implemented by os::Process). */
class SyscallHandler
{
  public:
    virtual ~SyscallHandler() = default;

    /** Service the ECALL current on @p cpu (regs hold nr/args). */
    virtual void handleSyscall(BaseCpu &cpu) = 0;
};

/** Construction parameters common to all CPU models. */
struct CpuParams
{
    int cpuId = 0;
    Addr resetPc = 0x1000;
    std::uint64_t maxInsts = 0; ///< stop after N insts (0 = no limit)
};

/**
 * Owner of the records a CPU attaches to its in-flight packets as
 * sender state (fetch blocks, pending loads). A packet only points at
 * its record; the CPU owns it, so a packet or a delayed-issue event
 * destroyed unanswered at teardown leaks nothing.
 */
template <typename T>
class InflightRecords
{
  public:
    /** Store @p record; the pointer stays valid until take(). */
    T *
    add(T record)
    {
        records_.push_back(std::move(record));
        return &records_.back();
    }

    /** Remove the record at @p record and return it. */
    T
    take(T *record)
    {
        auto it = std::find_if(records_.begin(), records_.end(),
                               [&](const T &r) { return &r == record; });
        g5p_assert(it != records_.end(), "unknown in-flight record");
        T out = std::move(*it);
        records_.erase(it);
        return out;
    }

  private:
    std::list<T> records_;
};

class BaseCpu : public sim::ClockedObject
{
  public:
    BaseCpu(sim::Simulator &sim, const std::string &name,
            const sim::ClockDomain &domain, const CpuParams &params);
    ~BaseCpu() override;

    /** @{ Memory-side ports (bind to the L1s). */
    mem::RequestPort &icachePort() { return icachePort_; }
    mem::RequestPort &dcachePort() { return dcachePort_; }
    /** @} */

    /** Bind the TLBs (owned by the System). */
    void setTlbs(mem::Tlb *itlb, mem::Tlb *dtlb);

    /** Bind the syscall handler (SE Process or FS kernel). */
    void setSyscallHandler(SyscallHandler *handler)
    { syscallHandler_ = handler; }

    /** Callback fired once when this CPU halts. */
    void setHaltCallback(std::function<void(BaseCpu &)> cb)
    { onHalt_ = std::move(cb); }

    /**
     * Hook fired at every architectural commit with the commit tick,
     * the instruction's PC, and the decoded instruction. Used by the
     * checkpoint tests to compare commit traces across a
     * checkpoint/restore boundary.
     */
    using CommitHook =
        std::function<void(Tick, Addr, const isa::StaticInst &)>;
    void setCommitHook(CommitHook hook)
    { commitHook_ = std::move(hook); }

    /** Begin execution at the reset PC (schedules the first event). */
    virtual void activate() = 0;

    /**
     * Short model tag ("atomic"/"timing"/"minor"/"o3"), written into
     * checkpoints so unserialize can tell a same-model checkpoint
     * (full pipeline restore) from a cross-model one (architectural
     * state only; the pipeline starts drained).
     */
    virtual const char *modelTag() const = 0;

    /**
     * One-shot region boundary: fire @p cb from the commit path once
     * the committed-instruction count reaches @p at_insts (0 disarms).
     * Unlike the maxInsts limit this does not halt the CPU — the
     * callback typically calls Simulator::exitSimLoop so run()
     * returns at the boundary and the caller can checkpoint or
     * switch models, then resume. Not serialized: drivers re-arm
     * after a restore.
     */
    void
    setInstMilestone(std::uint64_t at_insts, std::function<void()> cb)
    {
        milestoneAt_ = at_insts;
        milestoneCb_ = std::move(cb);
    }

    /** @{ Architectural state access (debug / syscalls / tests). */
    std::uint64_t
    readArchReg(RegIndex reg) const
    {
        return reg == 0 ? 0 : regs_[reg];
    }

    void
    setArchReg(RegIndex reg, std::uint64_t value)
    {
        if (reg != 0)
            regs_[reg] = value;
    }

    Addr pc() const { return pc_; }
    void setPc(Addr pc) { pc_ = pc; }
    /** @} */

    int cpuId() const { return params_.cpuId; }
    bool halted() const { return halted_; }

    /** External halt request (e.g. the exit syscall). */
    void requestHalt() { doHalt(); }

    /** Committed instruction count. */
    std::uint64_t
    numInsts() const
    {
        return (std::uint64_t)numInsts_.value();
    }

    void regStats() override;

    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(const sim::CheckpointIn &cp) override;

  protected:
    friend class CpuExecContext;

    /** @{ Memory hooks used by CpuExecContext (model-specific). */
    virtual isa::Fault execReadMem(Addr vaddr, unsigned size) = 0;
    virtual isa::Fault execWriteMem(Addr vaddr, unsigned size,
                                    std::uint64_t data) = 0;
    /** @} */

    /** Timing-response hooks; detailed models override. */
    virtual void recvInstResp(mem::PacketPtr pkt);
    virtual void recvDataResp(mem::PacketPtr pkt);

    /** Mark the CPU halted and fire the callback. */
    void doHalt();

    /** Dispatch an ECALL to the bound handler. */
    void doSyscall();

    /**
     * Post-commit bookkeeping shared by all models. Inline: runs once
     * per committed instruction in every model, and the common case
     * is four stat increments plus two null-check branches.
     */
    void
    countCommit(const isa::StaticInst &inst, Addr pc)
    {
        numInsts_ += 1;
        const auto &flags = inst.flags();
        if (flags.isLoad)
            numLoads_ += 1;
        if (flags.isStore)
            numStores_ += 1;
        if (flags.isControl)
            numBranches_ += 1;
        if (commitHook_)
            commitHook_(curTick(), pc, inst);
        if (milestoneAt_ && numInsts() >= milestoneAt_) {
            // Move-out first: the callback may re-arm a later
            // milestone.
            milestoneAt_ = 0;
            auto cb = std::move(milestoneCb_);
            milestoneCb_ = nullptr;
            if (cb)
                cb();
        }
    }

    /**
     * Guard for cross-model unserialize: throws CheckpointError when
     * the source checkpoint (ckptModel_) could hold instructions
     * whose architectural effects are already applied but not yet
     * committed — dropping those would lose state. Atomic, Timing
     * and Minor drain to pure architectural state at quiescence; O3
     * applies effects at dispatch, so an O3 checkpoint transplants
     * only when its window is empty.
     */
    void requireDrainedSource(const sim::CheckpointIn &cp) const;

    /** True once the per-CPU instruction limit is hit. */
    bool
    instLimitReached() const
    {
        return params_.maxInsts &&
               numInsts() >= params_.maxInsts;
    }

    class IcachePort : public mem::RequestPort
    {
      public:
        IcachePort(BaseCpu &cpu, const std::string &name)
            : mem::RequestPort(name), cpu_(cpu)
        {}
        void recvTimingResp(mem::PacketPtr pkt) override
        { cpu_.recvInstResp(pkt); }

      private:
        BaseCpu &cpu_;
    };

    class DcachePort : public mem::RequestPort
    {
      public:
        DcachePort(BaseCpu &cpu, const std::string &name)
            : mem::RequestPort(name), cpu_(cpu)
        {}
        void recvTimingResp(mem::PacketPtr pkt) override
        { cpu_.recvDataResp(pkt); }

      private:
        BaseCpu &cpu_;
    };

    CpuParams params_;
    std::uint64_t regs_[isa::numArchRegs] = {};
    Addr pc_;
    isa::Decoder decoder_;

    mem::Tlb *itlb_ = nullptr;
    mem::Tlb *dtlb_ = nullptr;
    SyscallHandler *syscallHandler_ = nullptr;
    std::function<void(BaseCpu &)> onHalt_;
    CommitHook commitHook_;
    bool halted_ = false;

    /** Model name found in the checkpoint section being restored
     *  (empty when absent: pre-switch checkpoints, assumed
     *  same-model). Valid during unserialize(). */
    std::string ckptModel_;

    std::uint64_t milestoneAt_ = 0;
    std::function<void()> milestoneCb_;

    IcachePort icachePort_;
    DcachePort dcachePort_;

    /** Most recent load result (consumed via ExecContext::memData). */
    std::uint64_t memData_ = 0;

    sim::stats::Scalar numInsts_;
    sim::stats::Scalar numLoads_;
    sim::stats::Scalar numStores_;
    sim::stats::Scalar numBranches_;
    sim::stats::Scalar numTakenBranches_;
    sim::stats::Scalar numSyscalls_;
    sim::stats::Formula ipc_;
};

/**
 * Shared ExecContext adapter: exposes BaseCpu state through the ISA's
 * abstract interface, with per-instruction next-PC tracking.
 */
class CpuExecContext : public isa::ExecContext
{
  public:
    explicit CpuExecContext(BaseCpu &cpu) : cpu_(cpu) {}

    /** Prepare for one instruction at @p pc. */
    void
    beginInst(Addr pc)
    {
        instPc_ = pc;
        nextPc_ = pc + isa::instBytes;
        branched_ = false;
    }

    Addr nextPc() const { return nextPc_; }
    bool branched() const { return branched_; }

    std::uint64_t
    readReg(RegIndex reg) const override
    {
        cpu_.touchState(reg * 8, 8, false);
        return cpu_.readArchReg(reg);
    }

    void
    setReg(RegIndex reg, std::uint64_t value) override
    {
        cpu_.touchState(reg * 8, 8, true);
        cpu_.setArchReg(reg, value);
    }

    Addr pc() const override { return instPc_; }

    void
    setNextPc(Addr npc) override
    {
        nextPc_ = npc;
        branched_ = true;
    }

    isa::Fault
    readMem(Addr addr, unsigned size) override
    {
        return cpu_.execReadMem(addr, size);
    }

    isa::Fault
    writeMem(Addr addr, unsigned size, std::uint64_t data) override
    {
        return cpu_.execWriteMem(addr, size, data);
    }

    std::uint64_t memData() const override { return cpu_.memData_; }

  private:
    BaseCpu &cpu_;
    Addr instPc_ = 0;
    Addr nextPc_ = 0;
    bool branched_ = false;
};

} // namespace g5p::cpu

#endif // G5P_CPU_BASE_CPU_HH
