#include "cpu/timing_cpu.hh"

#include "trace/recorder.hh"

namespace g5p::cpu
{

TimingCpu::TimingCpu(sim::Simulator &sim, const std::string &name,
                     const sim::ClockDomain &domain,
                     const CpuParams &params,
                     mem::PhysicalMemory &physmem)
    : BaseCpu(sim, name, domain, params),
      physmem_(physmem),
      ctx_(*this),
      fetchEvent_(this, name + ".tick", sim::Event::CpuTickPri)
{
    eventQueue().registerSerial(name + ".tick", &fetchEvent_);
}

TimingCpu::~TimingCpu()
{
    if (fetchEvent_.scheduled())
        deschedule(fetchEvent_);
    eventQueue().unregisterSerial(name() + ".tick");
}

void
TimingCpu::activate()
{
    // Idempotent: a restored CPU's fetch event is already
    // re-scheduled from the checkpoint (or the CPU halted).
    if (halted_ || fetchEvent_.scheduled())
        return;
    g5p_assert(state_ == State::Idle, "%s already active",
               name().c_str());
    schedule(fetchEvent_, clockEdge());
}

void
TimingCpu::startFetch()
{
    G5P_TRACE_SCOPE("TimingCpu::startFetch", CpuSimple, true);
    if (halted_)
        return;

    ctx_.beginInst(pc_);
    auto itr = itlb_->translate(pc_);
    g5p_assert(itr.translation.valid && itr.translation.executable,
               "%s: ifetch page fault at %#llx", name().c_str(),
               (unsigned long long)pc_);
    fetchPaddr_ = itr.translation.paddr;

    auto issue = [this] {
        auto *pkt = new mem::Packet(mem::MemCmd::ReadReq, fetchPaddr_,
                                    isa::instBytes);
        pkt->setInstFetch(true);
        pkt->setRequestorId(cpuId());
        state_ = State::FetchPending;
        fetchIssued_ = curTick();
        icachePort_.sendTimingReq(pkt);
    };

    if (itr.latency > 0) {
        // I-TLB walk delays the fetch issue.
        scheduleOneShot(clockEdge(itr.latency), issue,
                         name() + ".itlbWalk");
    } else {
        issue();
    }
}

void
TimingCpu::recvInstResp(mem::PacketPtr pkt)
{
    G5P_TRACE_SCOPE("TimingCpu::recvInstResp", CpuSimple, true);
    g5p_assert(state_ == State::FetchPending,
               "%s: stray instruction response", name().c_str());
    fetchStallCycles_ += (double)ticksToCycles(curTick() -
                                               fetchIssued_);
    delete pkt;

    std::uint64_t word = physmem_.read(fetchPaddr_, isa::instBytes);
    curInst_ = decoder_.decode(word);
    isa::Fault fault = curInst_->execute(ctx_);

    switch (fault) {
      case isa::Fault::None:
        if (curInst_->flags().isMemRef) {
            // Waiting for the data response; completeInst runs there.
            return;
        }
        completeInst();
        return;
      case isa::Fault::Syscall:
        doSyscall();
        completeInst();
        return;
      case isa::Fault::Halt:
        countCommit(*curInst_, pc_);
        state_ = State::Idle;
        doHalt();
        return;
      default:
        g5p_panic("%s: %s at pc %#llx", name().c_str(),
                  isa::faultName(fault), (unsigned long long)pc_);
    }
}

isa::Fault
TimingCpu::execReadMem(Addr vaddr, unsigned size)
{
    G5P_TRACE_SCOPE("TimingCpu::readMem", CpuSimple, false);
    auto tr = dtlb_->translate(vaddr);
    if (!tr.translation.valid)
        return isa::Fault::PageFault;

    pendingMem_ = PendingMem{tr.translation.paddr, size, true, 0};
    auto issue = [this] {
        auto *pkt = new mem::Packet(mem::MemCmd::ReadReq,
                                    pendingMem_.paddr,
                                    pendingMem_.size);
        pkt->setRequestorId(cpuId());
        state_ = State::DataPending;
        dataIssued_ = curTick();
        dcachePort_.sendTimingReq(pkt);
    };
    if (tr.latency > 0) {
        scheduleOneShot(clockEdge(tr.latency), issue,
                         name() + ".dtlbWalk");
    } else {
        issue();
    }
    return isa::Fault::None;
}

isa::Fault
TimingCpu::execWriteMem(Addr vaddr, unsigned size, std::uint64_t data)
{
    G5P_TRACE_SCOPE("TimingCpu::writeMem", CpuSimple, false);
    auto tr = dtlb_->translate(vaddr);
    if (!tr.translation.valid || !tr.translation.writable)
        return isa::Fault::PageFault;

    pendingMem_ = PendingMem{tr.translation.paddr, size, false, data};
    auto issue = [this] {
        auto *pkt = new mem::Packet(mem::MemCmd::WriteReq,
                                    pendingMem_.paddr,
                                    pendingMem_.size);
        pkt->setRequestorId(cpuId());
        state_ = State::DataPending;
        dataIssued_ = curTick();
        dcachePort_.sendTimingReq(pkt);
    };
    if (tr.latency > 0) {
        scheduleOneShot(clockEdge(tr.latency), issue,
                         name() + ".dtlbWalk");
    } else {
        issue();
    }
    return isa::Fault::None;
}

void
TimingCpu::recvDataResp(mem::PacketPtr pkt)
{
    G5P_TRACE_SCOPE("TimingCpu::recvDataResp", CpuSimple, true);
    g5p_assert(state_ == State::DataPending,
               "%s: stray data response", name().c_str());
    dataStallCycles_ += (double)ticksToCycles(curTick() - dataIssued_);
    delete pkt;

    if (pendingMem_.isLoad) {
        memData_ = physmem_.read(pendingMem_.paddr, pendingMem_.size);
        curInst_->completeAcc(ctx_, memData_);
    } else {
        physmem_.write(pendingMem_.paddr, pendingMem_.size,
                       pendingMem_.storeData);
    }
    completeInst();
}

void
TimingCpu::completeInst()
{
    G5P_TRACE_SCOPE("TimingCpu::completeInst", CpuSimple, false);
    countCommit(*curInst_, pc_);
    if (ctx_.branched())
        numTakenBranches_ += 1;
    pc_ = ctx_.nextPc();
    state_ = State::Idle;

    if (halted_ || instLimitReached()) {
        doHalt();
        return;
    }
    schedule(fetchEvent_, clockEdge(1));
}

void
TimingCpu::serialize(sim::CheckpointOut &cp) const
{
    // A timing CPU is only checkpointable between instructions: any
    // in-flight fetch or data access holds a transient event, so the
    // queue-quiescence check in the Simulator guarantees Idle here.
    g5p_assert(state_ == State::Idle,
               "%s: cannot checkpoint with an access in flight",
               name().c_str());
    BaseCpu::serialize(cp);
}

void
TimingCpu::unserialize(const sim::CheckpointIn &cp)
{
    BaseCpu::unserialize(cp);
    state_ = State::Idle;
}

void
TimingCpu::regStats()
{
    BaseCpu::regStats();
    addStat(&fetchStallCycles_, "fetchStallCycles",
            "cycles spent waiting for ifetch responses");
    addStat(&dataStallCycles_, "dataStallCycles",
            "cycles spent waiting for data responses");
}

} // namespace g5p::cpu
