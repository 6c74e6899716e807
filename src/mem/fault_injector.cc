#include "mem/fault_injector.hh"

#include <algorithm>

#include "base/sim_error.hh"
#include "mem/mem_events.hh"
#include "mem/packet.hh"
#include "mem/physical.hh"
#include "sim/simulator.hh"

namespace g5p::mem
{

FaultInjector::FaultInjector(sim::Simulator &sim,
                             const std::string &name,
                             const FaultInjectorParams &params)
    : sim::SimObject(sim, name, nullptr, 256),
      params_(params),
      flipRng_(params.seed),
      writeFailsLeft_(params.failWrites),
      readFailsLeft_(params.failReads),
      io_(*this),
      flipEvent_(this, name + ".flip")
{
    // RunOptions is the one place run control lives: a nonzero
    // faultSeed there re-seeds the whole campaign.
    if (sim.runOptions().faultSeed != 0) {
        params_.seed = sim.runOptions().faultSeed;
        flipRng_.seed(params_.seed);
    }
    shared_.rng.seed(coreSeed(-1));
    prevHook_ = TimingFaultHook::install(this);
    prevIo_ = sim::CheckpointIo::install(&io_);
}

FaultInjector::~FaultInjector()
{
    sim::CheckpointIo::install(prevIo_);
    TimingFaultHook::install(prevHook_);
    if (flipEvent_.scheduled())
        deschedule(flipEvent_);
    eventQueue().unregisterSerial(name() + ".flip");
}

void
FaultInjector::init()
{
    eventQueue().registerSerial(name() + ".flip", &flipEvent_);
}

void
FaultInjector::startup()
{
    if (params_.bitFlips > 0)
        schedule(flipEvent_, params_.firstFlipAt);
}

std::uint64_t
FaultInjector::coreSeed(int core) const
{
    // An affine mix is enough: Rng::seed runs splitmix64 over it, so
    // nearby cores still get unrelated streams. The +2 keeps the
    // fallback stream (core -1) distinct from core 0's.
    return params_.seed +
           0x9e3779b97f4a7c15ULL * (std::uint64_t)(core + 2);
}

FaultInjector::CoreFaults &
FaultInjector::coreFaults(int core)
{
    if (core < 0)
        return shared_;
    if ((std::size_t)core >= perCore_.size()) {
        std::size_t old = perCore_.size();
        perCore_.resize((std::size_t)core + 1);
        for (std::size_t i = old; i < perCore_.size(); ++i)
            perCore_[i].rng.seed(coreSeed((int)i));
    }
    return perCore_[(std::size_t)core];
}

unsigned
FaultInjector::delaysInjectedOn(int core) const
{
    if (core < 0)
        return shared_.delays;
    return (std::size_t)core < perCore_.size()
               ? perCore_[(std::size_t)core].delays
               : 0;
}

void
FaultInjector::doFlip()
{
    if (!mem_) {
        g5p_warn("%s: bit flip due but no memory attached; disabling",
                 name().c_str());
        return;
    }
    std::uint64_t span = params_.flipBytes
        ? params_.flipBytes
        : mem_->size() - params_.flipBase;
    Addr addr = params_.flipBase + flipRng_.below(span);
    unsigned bit = (unsigned)flipRng_.below(8);
    mem_->flipBit(addr, bit);
    ++flipsDone_;
    flipLog_.emplace_back(addr, bit);
    statFlips_ += 1;
    g5p_inform("%s: flipped bit %u of byte %#llx at tick %llu",
               name().c_str(), bit, (unsigned long long)addr,
               (unsigned long long)curTick());
    if (flipsDone_ < params_.bitFlips)
        schedule(flipEvent_, curTick() + params_.flipPeriod);
}

bool
FaultInjector::onTimingResp(ResponsePort &src, RequestPort &dst,
                            PacketPtr pkt)
{
    if (!pkt->isResponse())
        return true;
    CoreFaults &core = coreFaults(pkt->requestorId());
    if (params_.respFaultMax &&
        core.drops + core.delays >= params_.respFaultMax)
        return true;

    if (params_.dropChance > 0.0 &&
        core.rng.chance(params_.dropChance)) {
        ++core.drops;
        ++dropsDone_;
        statDrops_ += 1;
        g5p_warn("%s: dropping response %s from '%s' at tick %llu",
                 name().c_str(), pkt->toString().c_str(),
                 src.name().c_str(),
                 (unsigned long long)curTick());
        delete pkt;
        return false;
    }

    if (params_.delayChance > 0.0 &&
        core.rng.chance(params_.delayChance)) {
        ++core.delays;
        ++delaysDone_;
        statDelays_ += 1;
        // Packet-owning event: if the queue is cleared before the
        // delayed delivery fires (teardown, restore), the packet is
        // reclaimed instead of leaking out of the pool.
        auto *ev = new PacketDeliverEvent(dst, pkt);
        schedule(*ev, curTick() + params_.delayTicks);
        return false;
    }
    return true;
}

void
FaultInjector::FaultyIo::writeText(const std::string &path,
                                   const std::string &text)
{
    if (owner_.writeFailsLeft_ > 0) {
        --owner_.writeFailsLeft_;
        ++owner_.ioFaultsDone_;
        owner_.statIoFaults_ += 1;
        g5p_throw(CheckpointError, owner_.name(), owner_.curTick(),
                  "injected write failure for '%s' (%u more to come)",
                  path.c_str(), owner_.writeFailsLeft_);
    }
    CheckpointIo::writeText(path, text);
}

std::string
FaultInjector::FaultyIo::readText(const std::string &path)
{
    if (owner_.readFailsLeft_ > 0) {
        --owner_.readFailsLeft_;
        ++owner_.ioFaultsDone_;
        owner_.statIoFaults_ += 1;
        g5p_throw(CheckpointError, owner_.name(), owner_.curTick(),
                  "injected read failure for '%s' (%u more to come)",
                  path.c_str(), owner_.readFailsLeft_);
    }
    return CheckpointIo::readText(path);
}

void
FaultInjector::serialize(sim::CheckpointOut &cp) const
{
    cp.param("flipsDone", flipsDone_);
    cp.param("dropsDone", dropsDone_);
    cp.param("delaysDone", delaysDone_);
    cp.param("ioFaultsDone", ioFaultsDone_);
    cp.param("writeFailsLeft", writeFailsLeft_);
    cp.param("readFailsLeft", readFailsLeft_);

    std::vector<Addr> flip_addrs;
    std::vector<unsigned> flip_bits;
    flip_addrs.reserve(flipLog_.size());
    flip_bits.reserve(flipLog_.size());
    for (const auto &[addr, bit] : flipLog_) {
        flip_addrs.push_back(addr);
        flip_bits.push_back(bit);
    }
    cp.paramVector("flipAddrs", flip_addrs);
    cp.paramVector("flipBits", flip_bits);

    std::vector<unsigned> core_drops, core_delays;
    core_drops.reserve(perCore_.size());
    core_delays.reserve(perCore_.size());
    for (const CoreFaults &core : perCore_) {
        core_drops.push_back(core.drops);
        core_delays.push_back(core.delays);
    }
    cp.paramVector("coreDrops", core_drops);
    cp.paramVector("coreDelays", core_delays);
    cp.param("sharedDrops", shared_.drops);
    cp.param("sharedDelays", shared_.delays);
}

void
FaultInjector::unserialize(const sim::CheckpointIn &cp)
{
    cp.param("flipsDone", flipsDone_);
    cp.param("dropsDone", dropsDone_);
    cp.param("delaysDone", delaysDone_);
    cp.param("ioFaultsDone", ioFaultsDone_);
    cp.param("writeFailsLeft", writeFailsLeft_);
    cp.param("readFailsLeft", readFailsLeft_);

    std::vector<Addr> flip_addrs;
    std::vector<unsigned> flip_bits;
    cp.paramVector("flipAddrs", flip_addrs);
    cp.paramVector("flipBits", flip_bits);
    flipLog_.clear();
    for (std::size_t i = 0;
         i < flip_addrs.size() && i < flip_bits.size(); ++i)
        flipLog_.emplace_back(flip_addrs[i], flip_bits[i]);

    std::vector<unsigned> core_drops, core_delays;
    cp.paramVector("coreDrops", core_drops);
    cp.paramVector("coreDelays", core_delays);
    perCore_.clear();
    perCore_.resize(std::max(core_drops.size(), core_delays.size()));
    // The raw xoshiro states are not checkpointed; re-derive a
    // deterministic (though different from uninterrupted) stream per
    // core so restored runs are still replayable against each other.
    for (std::size_t i = 0; i < perCore_.size(); ++i) {
        CoreFaults &core = perCore_[i];
        core.drops = i < core_drops.size() ? core_drops[i] : 0;
        core.delays = i < core_delays.size() ? core_delays[i] : 0;
        core.rng.seed(coreSeed((int)i) + core.drops + core.delays);
    }
    cp.param("sharedDrops", shared_.drops);
    cp.param("sharedDelays", shared_.delays);
    shared_.rng.seed(coreSeed(-1) + shared_.drops + shared_.delays);
    flipRng_.seed(params_.seed + flipsDone_);
}

void
FaultInjector::regStats()
{
    addStat(&statFlips_, "bitFlips", "DRAM bit flips injected");
    addStat(&statDrops_, "respDrops", "timing responses dropped");
    addStat(&statDelays_, "respDelays", "timing responses delayed");
    addStat(&statIoFaults_, "ioFaults",
            "checkpoint I/O failures injected");
}

} // namespace g5p::mem
