#include "cpu/atomic_cpu.hh"

#include "trace/recorder.hh"

namespace g5p::cpu
{

AtomicCpu::AtomicCpu(sim::Simulator &sim, const std::string &name,
                     const sim::ClockDomain &domain,
                     const CpuParams &params,
                     mem::PhysicalMemory &physmem)
    : BaseCpu(sim, name, domain, params),
      physmem_(physmem),
      ctx_(*this),
      tickEvent_(this, name + ".tick", sim::Event::CpuTickPri)
{
    eventQueue().registerSerial(name + ".tick", &tickEvent_);
}

AtomicCpu::~AtomicCpu()
{
    if (tickEvent_.scheduled())
        deschedule(tickEvent_);
    eventQueue().unregisterSerial(name() + ".tick");
}

void
AtomicCpu::activate()
{
    // Idempotent: a restored CPU's tick event is already re-scheduled
    // from the checkpoint (or the CPU halted before it was taken).
    if (halted_ || tickEvent_.scheduled())
        return;
    schedule(tickEvent_, clockEdge());
}

isa::Fault
AtomicCpu::execReadMem(Addr vaddr, unsigned size)
{
    G5P_TRACE_SCOPE("AtomicCpu::readMem", MemAtomic, false);
    auto tr = dtlb_->translate(vaddr);
    if (!tr.translation.valid)
        return isa::Fault::PageFault;

    mem::Packet pkt(mem::MemCmd::ReadReq, tr.translation.paddr, size);
    pkt.setRequestorId(cpuId());
    dcachePort_.sendAtomic(pkt);
    memData_ = physmem_.read(tr.translation.paddr, size);
    return isa::Fault::None;
}

isa::Fault
AtomicCpu::execWriteMem(Addr vaddr, unsigned size, std::uint64_t data)
{
    G5P_TRACE_SCOPE("AtomicCpu::writeMem", MemAtomic, false);
    auto tr = dtlb_->translate(vaddr);
    if (!tr.translation.valid || !tr.translation.writable)
        return isa::Fault::PageFault;

    mem::Packet pkt(mem::MemCmd::WriteReq, tr.translation.paddr, size);
    pkt.setRequestorId(cpuId());
    dcachePort_.sendAtomic(pkt);
    physmem_.write(tr.translation.paddr, size, data);
    return isa::Fault::None;
}

namespace
{

/** Upper bound on instructions executed per tick-event service;
 *  bounds worst-case event latency without measurable cost. */
constexpr unsigned maxBatchInsts = 1024;

} // namespace

void
AtomicCpu::tick()
{
    G5P_TRACE_SCOPE("AtomicCpu::tick", CpuSimple, true);
    if (halted_)
        return;

    // Instruction batching: atomic execution schedules one tick
    // event per instruction, and on short queues that heap round
    // trip costs as much as the instruction itself. When nothing
    // needs per-event granularity (no watchdog, no profiler, no
    // trace recorder), execute instructions back to back inside this
    // one service, advancing curTick to each clock edge ourselves.
    // Any event becoming due — an exit scheduled by a milestone,
    // another CPU's tick — breaks the batch before it would run, so
    // the observable event interleaving is exactly the classic one.
    sim::EventQueue &eq = eventQueue();
    const bool batch =
        eq.batchingAllowed() && !trace::Recorder::active();
    unsigned executed = 0;

    for (;;) {
        // Fetch: translate and access the I side atomically.
        ctx_.beginInst(pc_);
        auto itr = itlb_->translate(pc_);
        g5p_assert(itr.translation.valid &&
                   itr.translation.executable,
                   "%s: ifetch page fault at %#llx", name().c_str(),
                   (unsigned long long)pc_);
        mem::Packet fetch(mem::MemCmd::ReadReq, itr.translation.paddr,
                          isa::instBytes);
        fetch.setInstFetch(true);
        fetch.setRequestorId(cpuId());
        icachePort_.sendAtomic(fetch);
        std::uint64_t word =
            physmem_.read(itr.translation.paddr, isa::instBytes);

        const isa::StaticInstPtr &inst = decoder_.decode(word);
        isa::Fault fault = inst->execute(ctx_);

        switch (fault) {
          case isa::Fault::None:
            if (inst->flags().isLoad)
                inst->completeAcc(ctx_, memData_);
            break;
          case isa::Fault::Syscall:
            doSyscall();
            break;
          case isa::Fault::Halt:
            countCommit(*inst, pc_);
            doHalt();
            return;
          default:
            g5p_panic("%s: %s at pc %#llx", name().c_str(),
                      isa::faultName(fault), (unsigned long long)pc_);
        }

        countCommit(*inst, pc_);
        if (ctx_.branched())
            numTakenBranches_ += 1;
        pc_ = ctx_.nextPc();

        if (halted_ || instLimitReached()) {
            doHalt();
            return;
        }
        // CPI = 1: one instruction per clock edge regardless of
        // memory.
        Tick next = clockEdge(1);
        if (!batch || ++executed >= maxBatchInsts ||
            next > eq.serviceHorizon() || eq.nextTick() <= next) {
            schedule(tickEvent_, next);
            return;
        }
        eq.setCurTick(next);
    }
}

} // namespace g5p::cpu
