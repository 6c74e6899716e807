#include "cpu/minor_cpu.hh"

#include <sstream>

#include "trace/recorder.hh"

namespace g5p::cpu
{

namespace
{

/** Fetch-block size: Minor fetches whole 32B lines (gem5 Fetch1). */
constexpr unsigned minorFetchBytes = 32;

} // namespace

MinorCpu::MinorCpu(sim::Simulator &sim, const std::string &name,
                   const sim::ClockDomain &domain,
                   const CpuParams &params,
                   const MinorParams &minor_params,
                   mem::PhysicalMemory &physmem)
    : BaseCpu(sim, name, domain, params),
      minorParams_(minor_params),
      physmem_(physmem),
      ctx_(*this),
      bpred_(minor_params.bpred),
      fetchPc_(params.resetPc),
      tickEvent_(this, name + ".tick", sim::Event::CpuTickPri)
{
    eventQueue().registerSerial(name + ".tick", &tickEvent_);
}

MinorCpu::~MinorCpu()
{
    if (tickEvent_.scheduled())
        deschedule(tickEvent_);
    eventQueue().unregisterSerial(name() + ".tick");
}

void
MinorCpu::activate()
{
    // Idempotent: a restored CPU's tick event is already re-scheduled
    // from the checkpoint (or the CPU halted before it was taken).
    if (halted_ || stopping_ || tickEvent_.scheduled())
        return;
    schedule(tickEvent_, clockEdge());
}

void
MinorCpu::tick()
{
    if (halted_)
        return;
    // A cycle spent purely waiting for an ifetch response does no
    // pipeline work; gem5 Minor's evaluate() is equally trivial then.
    bool waiting = inputBuffer_.empty() && fetchesInFlight_ > 0;
    if (waiting) {
        fetchBubbles_ += 1;
    } else {
        G5P_TRACE_SCOPE("MinorCpu::tick", CpuDetailed, true);
        tryExecute();
        tryFetch();
    }
    maybeReschedule();
}

void
MinorCpu::maybeReschedule()
{
    if (!halted_ && !stopping_ && !tickEvent_.scheduled())
        schedule(tickEvent_, clockEdge(1));
}

bool
MinorCpu::sourcesBusy(const isa::StaticInst &inst) const
{
    return scoreboard_[inst.rs1()] || scoreboard_[inst.rs2()] ||
           scoreboard_[inst.rd()];
}

void
MinorCpu::redirect(Addr npc)
{
    G5P_TRACE_SCOPE("MinorCpu::redirect", CpuDetailed, false);
    ++fetchEpoch_;
    inputBuffer_.clear();
    fetchPc_ = npc;
}

void
MinorCpu::tryExecute()
{
    if (inputBuffer_.empty()) {
        fetchBubbles_ += 1;
        return; // idle stage: nothing evaluates
    }

    // Hazard evaluation is cheap; only a real issue runs the full
    // execute machinery (as Minor's evaluate() short-circuits).
    FetchedInst head = inputBuffer_.front();
    const isa::StaticInst &inst = *head.inst;
    if (sourcesBusy(inst)) {
        loadUseStalls_ += 1;
        return;
    }
    if (inst.flags().isLoad &&
        (outstandingLoads_ >= minorParams_.maxOutstandingLoads ||
         (inst.rd() != 0 && scoreboard_[inst.rd()])))
        return; // LQ full or WAW on an in-flight load
    if (inst.flags().isStore &&
        outstandingStores_ >= minorParams_.maxOutstandingStores)
        return;

    G5P_TRACE_SCOPE("MinorCpu::execute", CpuDetailed, true);
    inputBuffer_.pop_front();
    pendingLoadInst_ = head.inst;
    ctx_.beginInst(head.pc);
    isa::Fault fault = inst.execute(ctx_);

    switch (fault) {
      case isa::Fault::None:
        break;
      case isa::Fault::Syscall:
        doSyscall();
        break;
      case isa::Fault::Halt:
        countCommit(inst, head.pc);
        stopping_ = true;
        doHalt();
        return;
      default:
        g5p_panic("%s: %s at pc %#llx", name().c_str(),
                  isa::faultName(fault),
                  (unsigned long long)head.pc);
    }

    if (inst.flags().isLoad) {
        ++outstandingLoads_;
        if (inst.rd() != 0)
            scoreboard_[inst.rd()] = true;
    } else if (inst.flags().isStore) {
        ++outstandingStores_;
    }

    if (inst.flags().isControl) {
        if (ctx_.branched())
            numTakenBranches_ += 1;
        bpred_.update(head.pc, ctx_.branched(), ctx_.nextPc(), inst);
    }

    countCommit(inst, head.pc);
    pc_ = ctx_.nextPc();

    if (instLimitReached()) {
        stopping_ = true;
        doHalt();
        return;
    }

    // Verify the prediction this instruction was fetched with.
    if (ctx_.nextPc() != head.predNpc) {
        branchMispredicts_ += 1;
        redirect(ctx_.nextPc());
    }
}

void
MinorCpu::tryFetch()
{
    if (stopping_ ||
        fetchesInFlight_ >= minorParams_.maxOutstandingFetches)
        return;
    if (inputBuffer_.size() + fetchesInFlight_ >=
        minorParams_.inputBufferSize)
        return;
    G5P_TRACE_SCOPE("MinorCpu::fetch", CpuDetailed, true);

    auto itr = itlb_->translate(fetchPc_);
    g5p_assert(itr.translation.valid && itr.translation.executable,
               "%s: ifetch page fault at %#llx", name().c_str(),
               (unsigned long long)fetchPc_);

    // Fetch to the end of the 32B block (blocks never cross pages).
    Addr block_end = (fetchPc_ & ~(Addr)(minorFetchBytes - 1)) +
                     minorFetchBytes;
    auto bytes = (unsigned)(block_end - fetchPc_);

    FetchReq *req = fetchReqs_.add(
        FetchReq{fetchPc_, itr.translation.paddr, bytes, fetchEpoch_});
    ++fetchesInFlight_;
    fetchPc_ = block_end; // sequential guess; decode may redirect

    auto issue = [this, req] {
        auto *pkt = new mem::Packet(mem::MemCmd::ReadReq, req->paddr,
                                    req->bytes);
        pkt->setInstFetch(true);
        pkt->setRequestorId(cpuId());
        pkt->setSenderState(req);
        icachePort_.sendTimingReq(pkt);
    };
    if (itr.latency > 0) {
        scheduleOneShot(clockEdge(itr.latency), issue,
                         name() + ".itlbWalk");
    } else {
        issue();
    }
}

void
MinorCpu::recvInstResp(mem::PacketPtr pkt)
{
    G5P_TRACE_SCOPE("MinorCpu::recvInstResp", CpuDetailed, true);
    g5p_assert(fetchesInFlight_ > 0, "%s: stray fetch response",
               name().c_str());
    FetchReq req = fetchReqs_.take(
        static_cast<FetchReq *>(pkt->senderState()));
    delete pkt;
    --fetchesInFlight_;

    if (halted_ || stopping_ || req.epoch != fetchEpoch_) {
        maybeReschedule(); // wrong-path or stale fetch
        return;
    }

    // Decode the whole block in fetch order; stop at the first
    // predicted-taken control instruction ("Fetch2" prediction).
    Addr vpc = req.vpc;
    Addr ppc = req.paddr;
    Addr vend = req.vpc + req.bytes;
    Addr next_fetch = vend;

    while (vpc < vend) {
        std::uint64_t word = physmem_.read(ppc, isa::instBytes);
        isa::StaticInstPtr inst = decoder_.decode(word);

        Addr pred_npc = vpc + isa::instBytes;
        if (inst->flags().isControl) {
            auto pred = bpred_.predict(vpc, inst.get());
            if (pred.taken) {
                pred_npc = pred.npc;
            } else if (!inst->flags().isIndirect &&
                       !inst->flags().isCondCtrl) {
                // Direct jump: the target is computable at decode.
                pred_npc = vpc + (std::int64_t)inst->imm();
            }
        }

        inputBuffer_.push_back(
            FetchedInst{inst, vpc, pred_npc, req.epoch});

        if (pred_npc != vpc + isa::instBytes) {
            next_fetch = pred_npc;
            break;
        }
        vpc += isa::instBytes;
        ppc += isa::instBytes;
    }

    fetchPc_ = next_fetch;
    maybeReschedule();
}

isa::Fault
MinorCpu::execReadMem(Addr vaddr, unsigned size)
{
    G5P_TRACE_SCOPE("MinorCpu::readMem", CpuDetailed, false);
    auto tr = dtlb_->translate(vaddr);
    if (!tr.translation.valid)
        return isa::Fault::PageFault;

    // Functional read at issue: all older stores already executed.
    memData_ = physmem_.read(tr.translation.paddr, size);

    // The response is matched to its load via sender state (several
    // loads can be in flight and L1 responses may reorder).
    InflightLoad *record =
        inflightLoads_.add(InflightLoad{pendingLoadInst_, memData_});
    Addr paddr = tr.translation.paddr;
    auto issue = [this, paddr, size, record] {
        auto *pkt = new mem::Packet(mem::MemCmd::ReadReq, paddr, size);
        pkt->setRequestorId(cpuId());
        pkt->setSenderState(record);
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
MinorCpu::execWriteMem(Addr vaddr, unsigned size, std::uint64_t data)
{
    G5P_TRACE_SCOPE("MinorCpu::writeMem", CpuDetailed, false);
    auto tr = dtlb_->translate(vaddr);
    if (!tr.translation.valid || !tr.translation.writable)
        return isa::Fault::PageFault;

    physmem_.write(tr.translation.paddr, size, data);

    Addr paddr = tr.translation.paddr;
    auto issue = [this, paddr, size] {
        auto *pkt = new mem::Packet(mem::MemCmd::WriteReq, paddr,
                                    size);
        pkt->setRequestorId(cpuId());
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
MinorCpu::recvDataResp(mem::PacketPtr pkt)
{
    G5P_TRACE_SCOPE("MinorCpu::recvDataResp", CpuDetailed, true);
    bool is_read = pkt->cmd() == mem::MemCmd::ReadResp;
    auto *state = static_cast<InflightLoad *>(pkt->senderState());
    delete pkt;

    if (is_read) {
        g5p_assert(state && outstandingLoads_ > 0,
                   "%s: stray load response", name().c_str());
        InflightLoad record = inflightLoads_.take(state);
        record.inst->completeAcc(ctx_, record.data);
        scoreboard_[record.inst->rd()] = false;
        --outstandingLoads_;
    } else {
        g5p_assert(outstandingStores_ > 0, "%s: stray store response",
                   name().c_str());
        --outstandingStores_;
    }
    maybeReschedule();
}

void
MinorCpu::serialize(sim::CheckpointOut &cp) const
{
    // Quiescence (no pending transient events) implies no in-flight
    // fetches or memory accesses; anything else is a checkpoint bug.
    g5p_assert(fetchesInFlight_ == 0 && outstandingLoads_ == 0 &&
               outstandingStores_ == 0,
               "%s: cannot checkpoint with accesses in flight",
               name().c_str());
    for (bool busy : scoreboard_)
        g5p_assert(!busy, "%s: scoreboard busy at checkpoint",
                   name().c_str());

    BaseCpu::serialize(cp);
    cp.param("fetchPc", fetchPc_);
    cp.param("fetchEpoch", fetchEpoch_);
    cp.param("stopping", (int)stopping_);

    // Decoded-but-unexecuted instructions: store each one's raw word
    // so restore can re-decode without re-reading guest memory.
    cp.param("numInput", inputBuffer_.size());
    std::size_t i = 0;
    for (const auto &fi : inputBuffer_) {
        auto tr = itlb_->pageTable()->translate(fi.pc);
        g5p_assert(tr.valid, "%s: unmapped pc %#llx in input buffer",
                   name().c_str(), (unsigned long long)fi.pc);
        std::uint64_t word = physmem_.peek(tr.paddr, isa::instBytes);
        std::ostringstream os;
        os << fi.pc << " " << fi.predNpc << " " << fi.epoch << " "
           << word;
        cp.param("input" + std::to_string(i++), os.str());
    }

    cp.pushSection("bpred");
    bpred_.serialize(cp);
    cp.popSection();
}

void
MinorCpu::unserialize(const sim::CheckpointIn &cp)
{
    BaseCpu::unserialize(cp);
    bool same_model = ckptModel_.empty() || ckptModel_ == modelTag();
    if (same_model) {
        cp.param("fetchPc", fetchPc_);
        cp.param("fetchEpoch", fetchEpoch_);
        int stopping = 0;
        cp.param("stopping", stopping);
        stopping_ = stopping != 0;

        std::size_t num_input = 0;
        cp.param("numInput", num_input);
        inputBuffer_.clear();
        for (std::size_t i = 0; i < num_input; ++i) {
            std::string record;
            cp.param("input" + std::to_string(i), record);
            std::istringstream is(record);
            FetchedInst fi;
            std::uint64_t word = 0;
            is >> fi.pc >> fi.predNpc >> fi.epoch >> word;
            g5p_assert(!is.fail(), "%s: corrupt input-buffer record",
                       name().c_str());
            fi.inst = decoder_.decodeQuiet(word);
            inputBuffer_.push_back(std::move(fi));
        }
    } else {
        // Cross-model transplant (source already vetted by
        // BaseCpu::unserialize): the source drained to pure
        // architectural state, so start with a cold pipeline fetching
        // at the committed PC; the predictor keeps its freshly built
        // (empty) tables.
        fetchPc_ = pc_;
        fetchEpoch_ = 0;
        stopping_ = halted_;
        inputBuffer_.clear();
    }

    for (bool &busy : scoreboard_)
        busy = false;
    fetchesInFlight_ = 0;
    outstandingLoads_ = 0;
    outstandingStores_ = 0;
    pendingLoadInst_.reset();

    if (same_model) {
        cp.pushSection("bpred");
        bpred_.unserialize(cp);
        cp.popSection();
    }
}

void
MinorCpu::regStats()
{
    BaseCpu::regStats();
    addStat(&branchMispredicts_, "branchMispredicts",
            "execute-stage redirects");
    addStat(&loadUseStalls_, "loadUseStalls",
            "cycles stalled on scoreboard hazards");
    addStat(&fetchBubbles_, "fetchBubbles",
            "execute cycles with an empty input buffer");
}

} // namespace g5p::cpu
