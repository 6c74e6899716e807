#include "cpu/o3/o3_cpu.hh"

#include <sstream>
#include <unordered_map>

#include "base/addr_utils.hh"
#include "trace/recorder.hh"

namespace g5p::cpu
{

using o3::DynInst;
using o3::DynInstPtr;
using o3::InstStage;

namespace
{

/** Fetch-block size: 32 bytes = four 8-byte instructions. */
constexpr unsigned fetchBlockBytes = 32;

/** An idle stage still evaluates its (empty) activity list. */
void
stageIdleWork()
{
    G5P_TRACE_SCOPE("O3Cpu::stageIdle", Util, false);
}

} // namespace

O3Cpu::O3Cpu(sim::Simulator &sim, const std::string &name,
             const sim::ClockDomain &domain, const CpuParams &params,
             const O3Params &o3_params, mem::PhysicalMemory &physmem)
    : BaseCpu(sim, name, domain, params),
      o3Params_(o3_params),
      physmem_(physmem),
      ctx_(*this),
      bpred_(o3_params.bpred),
      rob_(o3_params.robEntries),
      iq_(o3_params.iqEntries, o3_params.fu),
      lsq_(o3_params.lqEntries, o3_params.sqEntries),
      rename_(o3_params.numPhysRegs),
      fetchPc_(params.resetPc),
      tickEvent_(this, name + ".tick", sim::Event::CpuTickPri)
{
    eventQueue().registerSerial(name + ".tick", &tickEvent_);
}

O3Cpu::~O3Cpu()
{
    if (tickEvent_.scheduled())
        deschedule(tickEvent_);
    eventQueue().unregisterSerial(name() + ".tick");
}

void
O3Cpu::activate()
{
    // Idempotent: a restored CPU's tick event is already re-scheduled
    // from the checkpoint (or the CPU halted before it was taken).
    if (halted_ || tickEvent_.scheduled())
        return;
    schedule(tickEvent_, clockEdge());
}

void
O3Cpu::maybeReschedule()
{
    if (!halted_ && !tickEvent_.scheduled())
        schedule(tickEvent_, clockEdge(1));
}

void
O3Cpu::tick()
{
    G5P_TRACE_SCOPE("O3Cpu::tick", CpuDetailed, true);
    if (halted_)
        return;
    commitStage();
    if (halted_)
        return;
    writebackStage();
    issueStage();
    dispatchStage();
    fetchStage();
    maybeReschedule();
}

void
O3Cpu::commitStage()
{
    if (rob_.empty()) {
        stageIdleWork();
        return;
    }
    G5P_TRACE_SCOPE("O3Cpu::commit", CpuDetailed, true);
    Cycles now = curCycle();
    for (unsigned n = 0; n < o3Params_.commitWidth && !rob_.empty();
         ++n) {
        const DynInstPtr &head = rob_.head();
        g5p_assert(!head->wrongPath,
                   "wrong-path instruction at ROB head");
        if (head->stage != InstStage::Completed ||
            head->completeCycle > now)
            break;

        if (head->isStore()) {
            if (outstandingStores_ >= o3Params_.maxOutstandingStores)
                break; // store buffer full; stall commit
            issueStore(*head);
        }

        if (head->destPhys >= 0 && head->prevDestPhys >= 0)
            rename_.free(head->prevDestPhys);

        lsq_.commit(*head);
        countCommit(*head->inst, head->pc);
        if (head->isControl() && head->actualNpc !=
            head->pc + isa::instBytes)
            numTakenBranches_ += 1;
        pc_ = head->actualNpc;

        bool is_halt = head->inst->flags().isHalt;
        rob_.popHead();

        if (is_halt || instLimitReached()) {
            stopping_ = true;
            doHalt();
            return;
        }
    }
}

void
O3Cpu::writebackStage()
{
    if (rob_.empty()) {
        stageIdleWork();
        return;
    }
    G5P_TRACE_SCOPE("O3Cpu::writeback", CpuDetailed, true);
    Cycles now = curCycle();
    DynInstPtr resolve;
    for (auto &di : rob_) {
        if (di->stage != InstStage::Issued)
            continue;
        if (di->isLoad() && !di->wrongPath && !di->forwarded &&
            !di->memDone)
            continue; // dcache response pending
        if (di->completeCycle > now)
            continue;
        di->stage = InstStage::Completed;
        if (di->mispredicted && !resolve)
            resolve = di;
    }
    if (resolve)
        resolveMispredict(*resolve);
}

void
O3Cpu::resolveMispredict(DynInst &branch)
{
    G5P_TRACE_SCOPE("O3Cpu::squash", CpuDetailed, false);
    branchMispredicts_ += 1;
    std::size_t squashed = rob_.squashAfter(branch.seq);
    squashedInsts_ += (double)squashed;
    iq_.squashAfter(branch.seq);
    lsq_.squashAfter(branch.seq);
    fetchQueue_.clear();
    fetchReadyCycle_.clear();
    ++fetchEpoch_;
    fetchPc_ = branch.actualNpc;
    branch.mispredicted = false; // resolved
    wrongPathMode_ = false;
}

void
O3Cpu::issueStage()
{
    if (iq_.size() == 0) {
        stageIdleWork();
        return;
    }
    G5P_TRACE_SCOPE("O3Cpu::issue", CpuDetailed, true);
    Cycles now = curCycle();
    iq_.issue(now, o3Params_.issueWidth, rename_,
              [&](const DynInstPtr &di, Cycles fu_latency) {
        di->stage = InstStage::Issued;

        if (di->wrongPath) {
            di->completeCycle = now + fu_latency;
            return;
        }

        if (di->isLoad()) {
            if (lsq_.canForward(*di)) {
                di->forwarded = true;
                storeForwards_ += 1;
                di->completeCycle = now + 1 + di->dtlbLatency;
            } else {
                di->memIssued = true;
                di->completeCycle = maxTick; // set at response
                issueLoad(di);
            }
        } else if (di->isStore()) {
            // Address generation; data goes to memory at commit.
            di->completeCycle = now + 1 + di->dtlbLatency;
        } else {
            di->completeCycle = now + fu_latency;
        }

        if (di->destPhys >= 0 && di->completeCycle != maxTick)
            rename_.setReadyCycle(di->destPhys, di->completeCycle);
    });
}

void
O3Cpu::issueLoad(const DynInstPtr &di)
{
    DynInstPtr *holder = loadHolders_.add(di);
    Addr paddr = di->paddr;
    unsigned size = di->memSize;
    Cycles delay = di->dtlbLatency;
    auto issue = [this, holder, paddr, size] {
        auto *pkt = new mem::Packet(mem::MemCmd::ReadReq, paddr, size);
        pkt->setRequestorId(cpuId());
        pkt->setSenderState(holder);
        dcachePort_.sendTimingReq(pkt);
    };
    if (delay > 0) {
        scheduleOneShot(clockEdge(delay), issue,
                         name() + ".dtlbWalk");
    } else {
        issue();
    }
}

void
O3Cpu::issueStore(const DynInst &di)
{
    ++outstandingStores_;
    auto *pkt = new mem::Packet(mem::MemCmd::WriteReq, di.paddr,
                                di.memSize);
    pkt->setRequestorId(cpuId());
    dcachePort_.sendTimingReq(pkt);
}

void
O3Cpu::oracleExecute(DynInst &di)
{
    G5P_TRACE_SCOPE("O3Cpu::oracleExecute", CpuDetailed, false);
    ctx_.beginInst(di.pc);
    dispatchMem_.valid = false;
    isa::Fault fault = di.inst->execute(ctx_);

    switch (fault) {
      case isa::Fault::None:
        break;
      case isa::Fault::Syscall:
        doSyscall();
        break;
      case isa::Fault::Halt:
        fetchStopped_ = true;
        break;
      default:
        g5p_panic("%s: %s at pc %#llx", name().c_str(),
                  isa::faultName(fault), (unsigned long long)di.pc);
    }

    di.actualNpc = ctx_.nextPc();
    if (di.inst->flags().isMemRef) {
        g5p_assert(dispatchMem_.valid, "memory inst without access");
        di.paddr = dispatchMem_.paddr;
        di.memSize = dispatchMem_.size;
        di.dtlbLatency = dispatchMem_.tlbLatency;
        if (di.isLoad()) {
            di.loadData = dispatchMem_.data;
            di.inst->completeAcc(ctx_, di.loadData);
        }
    }
}

void
O3Cpu::dispatchStage()
{
    if (fetchQueue_.empty()) {
        stageIdleWork();
        return;
    }
    G5P_TRACE_SCOPE("O3Cpu::dispatch", CpuDetailed, true);
    Cycles now = curCycle();
    for (unsigned n = 0;
         n < o3Params_.dispatchWidth && !fetchQueue_.empty(); ++n) {
        if (fetchReadyCycle_.front() > now)
            break; // still in the front-end pipeline
        if (rob_.full()) {
            robFullStalls_ += 1;
            break;
        }
        if (iq_.full()) {
            iqFullStalls_ += 1;
            break;
        }

        DynInstPtr di = fetchQueue_.front();
        const auto &flags = di->inst->flags();

        if (!wrongPathMode_) {
            if ((flags.isLoad && lsq_.lqFull()) ||
                (flags.isStore && lsq_.sqFull()))
                break;
            if (flags.isNop) {
                // NOPs retire in the frontend in real O3 cores; keep
                // them out of the window but commit-count them.
                fetchQueue_.pop_front();
                fetchReadyCycle_.pop_front();
                countCommit(*di->inst, di->pc);
                pc_ = di->pc + isa::instBytes;
                continue;
            }
            if (di->inst->rd() != 0 && !rename_.canRename())
                break; // no physical register; retry next cycle

            oracleExecute(*di);

            // Rename after oracle execution: sources first.
            di->srcPhys1 = di->inst->rs1()
                ? rename_.lookup(di->inst->rs1()) : -1;
            di->srcPhys2 = di->inst->rs2()
                ? rename_.lookup(di->inst->rs2()) : -1;
            if (di->inst->rd() != 0) {
                if (!rename_.canRename())
                    break;
                auto [next, prev] = rename_.rename(di->inst->rd());
                di->destPhys = next;
                di->prevDestPhys = prev;
                rename_.setReadyCycle(next, maxTick);
            }

            if (flags.isControl) {
                bool taken = di->actualNpc != di->pc + isa::instBytes;
                bpred_.update(di->pc, taken, di->actualNpc,
                              *di->inst);
            }
            if (di->actualNpc != di->predNpc) {
                di->mispredicted = true;
                wrongPathMode_ = true;
            }

            if (flags.isLoad)
                lsq_.insertLoad(di);
            if (flags.isStore)
                lsq_.insertStore(di);
            if (flags.isHalt) {
                di->stage = InstStage::Completed;
                di->completeCycle = now;
                rob_.push(di);
                fetchQueue_.pop_front();
                fetchReadyCycle_.pop_front();
                wrongPathMode_ = true; // nothing younger is real
                continue;
            }
        } else {
            di->wrongPath = true;
        }

        rob_.push(di);
        iq_.insert(di);
        fetchQueue_.pop_front();
        fetchReadyCycle_.pop_front();
    }
}

isa::Fault
O3Cpu::execReadMem(Addr vaddr, unsigned size)
{
    auto tr = dtlb_->translate(vaddr);
    if (!tr.translation.valid)
        return isa::Fault::PageFault;
    dispatchMem_ = PendingMem{tr.translation.paddr, size, tr.latency,
                              physmem_.read(tr.translation.paddr,
                                            size),
                              true};
    return isa::Fault::None;
}

isa::Fault
O3Cpu::execWriteMem(Addr vaddr, unsigned size, std::uint64_t data)
{
    auto tr = dtlb_->translate(vaddr);
    if (!tr.translation.valid || !tr.translation.writable)
        return isa::Fault::PageFault;
    physmem_.write(tr.translation.paddr, size, data);
    dispatchMem_ = PendingMem{tr.translation.paddr, size, tr.latency,
                              data, true};
    return isa::Fault::None;
}

void
O3Cpu::fetchStage()
{
    if (fetchStopped_ || fetchInFlight_)
        return;
    if (fetchQueue_.size() >= o3Params_.fetchQueueSize)
        return;
    G5P_TRACE_SCOPE("O3Cpu::fetch", CpuDetailed, true);

    auto itr = itlb_->translate(fetchPc_);
    g5p_assert(itr.translation.valid && itr.translation.executable,
               "%s: ifetch page fault at %#llx", name().c_str(),
               (unsigned long long)fetchPc_);

    Addr block_end = alignDown(fetchPc_, fetchBlockBytes) +
                     fetchBlockBytes;
    unsigned bytes = (unsigned)(block_end - fetchPc_);
    bytes = std::min(bytes, o3Params_.fetchWidth * isa::instBytes);

    FetchBlock *block = fetchBlocks_.add(
        FetchBlock{fetchPc_, itr.translation.paddr, bytes, fetchEpoch_});
    fetchInFlight_ = true;
    if (wrongPathMode_)
        wrongPathFetches_ += 1;

    auto issue = [this, block] {
        auto *pkt = new mem::Packet(mem::MemCmd::ReadReq,
                                    block->paddr, block->bytes);
        pkt->setInstFetch(true);
        pkt->setRequestorId(cpuId());
        pkt->setSenderState(block);
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
O3Cpu::recvInstResp(mem::PacketPtr pkt)
{
    G5P_TRACE_SCOPE("O3Cpu::recvInstResp", CpuDetailed, true);
    FetchBlock block = fetchBlocks_.take(
        static_cast<FetchBlock *>(pkt->senderState()));
    delete pkt;
    fetchInFlight_ = false;

    if (halted_ || fetchStopped_ || block.epoch != fetchEpoch_) {
        maybeReschedule();
        return;
    }

    Cycles ready = curCycle() + o3Params_.frontendDepth;
    Addr vpc = block.vaddr;
    Addr ppc = block.paddr;
    Addr vend = block.vaddr + block.bytes;
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
                pred_npc = vpc + (std::int64_t)inst->imm();
            }
        }

        trace::recordHeapAlloc(sizeof(DynInst) + 32);
        auto di = std::make_shared<DynInst>();
        di->inst = inst;
        di->pc = vpc;
        di->predNpc = pred_npc;
        di->seq = nextSeq_++;
        fetchQueue_.push_back(di);
        fetchReadyCycle_.push_back(ready);

        if (pred_npc != vpc + isa::instBytes) {
            next_fetch = pred_npc; // redirect within the block
            break;
        }
        vpc += isa::instBytes;
        ppc += isa::instBytes;
    }

    fetchPc_ = next_fetch;
    maybeReschedule();
}

void
O3Cpu::recvDataResp(mem::PacketPtr pkt)
{
    G5P_TRACE_SCOPE("O3Cpu::recvDataResp", CpuDetailed, true);
    if (pkt->cmd() == mem::MemCmd::WriteResp) {
        delete pkt;
        g5p_assert(outstandingStores_ > 0, "%s: stray store response",
                   name().c_str());
        --outstandingStores_;
        maybeReschedule();
        return;
    }

    DynInstPtr di = loadHolders_.take(
        static_cast<DynInstPtr *>(pkt->senderState()));
    delete pkt;

    if (halted_) {
        maybeReschedule();
        return;
    }

    di->memDone = true;
    di->completeCycle = curCycle() + 1;
    if (di->destPhys >= 0)
        rename_.setReadyCycle(di->destPhys, di->completeCycle);
    maybeReschedule();
}

std::string
O3Cpu::encodeDynInst(const DynInst &di) const
{
    // The raw word travels with the record so restore can rebuild
    // the StaticInst without touching (or depending on the restore
    // order of) guest memory.
    auto tr = itlb_->pageTable()->translate(di.pc);
    g5p_assert(tr.valid, "%s: unmapped pc %#llx in pipeline",
               name().c_str(), (unsigned long long)di.pc);
    std::uint64_t word = physmem_.peek(tr.paddr, isa::instBytes);

    std::ostringstream os;
    os << di.seq << ' ' << di.pc << ' ' << di.predNpc << ' '
       << di.actualNpc << ' ' << word << ' ' << (int)di.stage << ' '
       << (int)di.wrongPath << ' ' << (int)di.mispredicted << ' '
       << di.destPhys << ' ' << di.prevDestPhys << ' '
       << di.srcPhys1 << ' ' << di.srcPhys2 << ' ' << di.paddr << ' '
       << di.memSize << ' ' << di.loadData << ' '
       << (int)di.memIssued << ' ' << (int)di.memDone << ' '
       << (int)di.forwarded << ' ' << di.dtlbLatency << ' '
       << di.completeCycle;
    return os.str();
}

DynInstPtr
O3Cpu::decodeDynInst(const std::string &record)
{
    std::istringstream is(record);
    std::uint64_t word = 0;
    int stage = 0, wrong_path = 0, mispredicted = 0;
    int mem_issued = 0, mem_done = 0, forwarded = 0;
    auto di = std::make_shared<DynInst>();
    is >> di->seq >> di->pc >> di->predNpc >> di->actualNpc >> word
       >> stage >> wrong_path >> mispredicted >> di->destPhys
       >> di->prevDestPhys >> di->srcPhys1 >> di->srcPhys2
       >> di->paddr >> di->memSize >> di->loadData >> mem_issued
       >> mem_done >> forwarded >> di->dtlbLatency
       >> di->completeCycle;
    g5p_assert(!is.fail(), "%s: corrupt DynInst record",
               name().c_str());
    di->stage = (InstStage)stage;
    di->wrongPath = wrong_path != 0;
    di->mispredicted = mispredicted != 0;
    di->memIssued = mem_issued != 0;
    di->memDone = mem_done != 0;
    di->forwarded = forwarded != 0;
    di->inst = decoder_.decodeQuiet(word);
    return di;
}

void
O3Cpu::serialize(sim::CheckpointOut &cp) const
{
    // Quiescence (no pending transient events) means no in-flight
    // fetch, loads, or stores; the in-window pipeline state below is
    // everything the machine needs to resume exactly.
    g5p_assert(!fetchInFlight_ && outstandingStores_ == 0,
               "%s: cannot checkpoint with accesses in flight",
               name().c_str());
    for (const auto &di : rob_)
        g5p_assert(di->wrongPath || !di->memIssued || di->memDone,
                   "%s: load in flight at checkpoint",
                   name().c_str());

    BaseCpu::serialize(cp);
    cp.param("fetchPc", fetchPc_);
    cp.param("fetchEpoch", fetchEpoch_);
    cp.param("fetchStopped", (int)fetchStopped_);
    cp.param("nextSeq", nextSeq_);
    cp.param("wrongPathMode", (int)wrongPathMode_);
    cp.param("stopping", (int)stopping_);

    cp.param("numRob", rob_.size());
    std::size_t i = 0;
    for (const auto &di : rob_)
        cp.param("rob" + std::to_string(i++), encodeDynInst(*di));

    cp.param("numFetch", fetchQueue_.size());
    i = 0;
    for (const auto &di : fetchQueue_)
        cp.param("fetch" + std::to_string(i++), encodeDynInst(*di));
    std::vector<Cycles> ready(fetchReadyCycle_.begin(),
                              fetchReadyCycle_.end());
    cp.paramVector("fetchReady", ready);

    // IQ and LSQ hold the same DynInsts; reference them by sequence
    // number rather than duplicating the records.
    std::vector<std::uint64_t> seqs;
    for (const auto &di : iq_.contents())
        seqs.push_back(di->seq);
    cp.paramVector("iqSeqs", seqs);
    seqs.clear();
    for (const auto &di : lsq_.loads())
        seqs.push_back(di->seq);
    cp.paramVector("lqSeqs", seqs);
    seqs.clear();
    for (const auto &di : lsq_.stores())
        seqs.push_back(di->seq);
    cp.paramVector("sqSeqs", seqs);

    cp.pushSection("rename");
    rename_.serialize(cp);
    cp.popSection();
    cp.pushSection("bpred");
    bpred_.serialize(cp);
    cp.popSection();
}

void
O3Cpu::unserialize(const sim::CheckpointIn &cp)
{
    BaseCpu::unserialize(cp);
    if (!ckptModel_.empty() && ckptModel_ != modelTag()) {
        // Cross-model transplant (source already vetted by
        // BaseCpu::unserialize): the source drained to pure
        // architectural state, so start with an empty window fetching
        // at the committed PC. The rename map and predictor keep
        // their freshly built state (identity mapping, cold tables).
        fetchPc_ = pc_;
        fetchEpoch_ = 0;
        fetchStopped_ = false;
        wrongPathMode_ = false;
        stopping_ = halted_;
        rob_.clear();
        fetchQueue_.clear();
        fetchReadyCycle_.clear();
        iq_.clear();
        lsq_.clear();
        fetchInFlight_ = false;
        outstandingStores_ = 0;
        dispatchMem_.valid = false;
        return;
    }
    cp.param("fetchPc", fetchPc_);
    cp.param("fetchEpoch", fetchEpoch_);
    int fetch_stopped = 0, wrong_path = 0, stopping = 0;
    cp.param("fetchStopped", fetch_stopped);
    fetchStopped_ = fetch_stopped != 0;
    cp.param("nextSeq", nextSeq_);
    cp.param("wrongPathMode", wrong_path);
    wrongPathMode_ = wrong_path != 0;
    cp.param("stopping", stopping);
    stopping_ = stopping != 0;

    std::unordered_map<std::uint64_t, DynInstPtr> by_seq;
    auto read_record = [&](const std::string &key) {
        std::string record;
        cp.param(key, record);
        DynInstPtr di = decodeDynInst(record);
        by_seq.emplace(di->seq, di);
        return di;
    };

    std::size_t num_rob = 0;
    cp.param("numRob", num_rob);
    rob_.clear();
    for (std::size_t i = 0; i < num_rob; ++i)
        rob_.push(read_record("rob" + std::to_string(i)));

    std::size_t num_fetch = 0;
    cp.param("numFetch", num_fetch);
    fetchQueue_.clear();
    for (std::size_t i = 0; i < num_fetch; ++i)
        fetchQueue_.push_back(
            read_record("fetch" + std::to_string(i)));
    std::vector<Cycles> ready;
    cp.paramVector("fetchReady", ready);
    g5p_assert(ready.size() == fetchQueue_.size(),
               "%s: fetch-queue checkpoint mismatch", name().c_str());
    fetchReadyCycle_.assign(ready.begin(), ready.end());

    std::vector<std::uint64_t> seqs;
    cp.paramVector("iqSeqs", seqs);
    iq_.clear();
    for (auto seq : seqs)
        iq_.insert(by_seq.at(seq));
    cp.paramVector("lqSeqs", seqs);
    lsq_.clear();
    for (auto seq : seqs)
        lsq_.insertLoad(by_seq.at(seq));
    cp.paramVector("sqSeqs", seqs);
    for (auto seq : seqs)
        lsq_.insertStore(by_seq.at(seq));

    fetchInFlight_ = false;
    outstandingStores_ = 0;
    dispatchMem_.valid = false;

    cp.pushSection("rename");
    rename_.unserialize(cp);
    cp.popSection();
    cp.pushSection("bpred");
    bpred_.unserialize(cp);
    cp.popSection();
}

void
O3Cpu::regStats()
{
    BaseCpu::regStats();
    addStat(&branchMispredicts_, "branchMispredicts",
            "resolved mispredicted control insts");
    addStat(&squashedInsts_, "squashedInsts",
            "wrong-path instructions squashed");
    addStat(&wrongPathFetches_, "wrongPathFetches",
            "fetch blocks issued while on the wrong path");
    addStat(&robFullStalls_, "robFullStalls",
            "dispatch stalls due to a full ROB");
    addStat(&iqFullStalls_, "iqFullStalls",
            "dispatch stalls due to a full IQ");
    addStat(&storeForwards_, "storeForwards",
            "loads satisfied by store-to-load forwarding");
}

} // namespace g5p::cpu
