#include "os/system.hh"

#include <sstream>

#include "base/addr_utils.hh"
#include "base/logging.hh"

namespace g5p::os
{

const char *
cpuModelName(CpuModel model)
{
    switch (model) {
      case CpuModel::Atomic: return "Atomic";
      case CpuModel::Timing: return "Timing";
      case CpuModel::Minor:  return "Minor";
      case CpuModel::O3:     return "O3";
    }
    return "?";
}

const char *
simModeName(SimMode mode)
{
    return mode == SimMode::SE ? "SE" : "FS";
}

System::System(sim::Simulator &sim, const SystemConfig &config,
               const GuestWorkload &workload)
    : sim_(sim), config_(config),
      clock_(sim::ClockDomain::fromMHz(config.cpuMHz))
{
    build(workload);
}

System::~System()
{
    // The probes capture `this`; the Simulator outlives the System in
    // every configuration, so remove them before our members go away.
    sim_.setActivityProbe(nullptr);
    sim_.setDiagProbe(nullptr);
}

std::unique_ptr<cpu::BaseCpu>
System::makeCpu(unsigned i)
{
    cpu::CpuParams base;
    base.cpuId = (int)i;
    base.resetPc = 0x1000;
    base.maxInsts = config_.maxInstsPerCpu;
    std::string name = "cpu" + std::to_string(i);

    switch (config_.cpuModel) {
      case CpuModel::Atomic:
        return std::make_unique<cpu::AtomicCpu>(sim_, name, clock_,
                                                base, *physmem_);
      case CpuModel::Timing:
        return std::make_unique<cpu::TimingCpu>(sim_, name, clock_,
                                                base, *physmem_);
      case CpuModel::Minor:
        return std::make_unique<cpu::MinorCpu>(sim_, name, clock_,
                                               base, config_.minor,
                                               *physmem_);
      case CpuModel::O3:
        return std::make_unique<cpu::O3Cpu>(sim_, name, clock_, base,
                                            config_.o3, *physmem_);
    }
    g5p_panic("bad CPU model");
}

void
System::wireCpu(cpu::BaseCpu &cpu, unsigned i)
{
    cpu.setTlbs(itlbs_[i].get(), dtlbs_[i].get());
    cpu.setSyscallHandler(config_.mode == SimMode::FS
                              ? (cpu::SyscallHandler *)fsKernel_.get()
                              : process_.get());
    cpu.setHaltCallback([this](cpu::BaseCpu &) {
        if (++haltedCount_ == cpus_.size())
            sim_.exitSimLoop("workload complete");
    });
    cpu.icachePort().bind(l1is_[i]->cpuSidePort());
    cpu.dcachePort().bind(l1ds_[i]->cpuSidePort());
}

void
System::build(const GuestWorkload &workload)
{
    g5p_assert(config_.numCpus >= 1 && config_.numCpus <= 16,
               "unsupported CPU count %u", config_.numCpus);

    physmem_ = std::make_unique<mem::PhysicalMemory>(
        sim_, "physmem", config_.memBytes);
    dram_ = std::make_unique<mem::DramCtrl>(sim_, "dram", clock_,
                                            *physmem_, config_.dram);
    l2_ = std::make_unique<mem::Cache>(sim_, "l2", clock_,
                                       config_.l2);
    xbar_ = std::make_unique<mem::CoherentXbar>(sim_, "xbar", clock_,
                                                config_.xbar);

    l2_->memSidePort().bind(dram_->port());
    xbar_->memSidePort().bind(l2_->cpuSidePort());

    process_ = std::make_unique<Process>(sim_, "process", *physmem_,
                                         100);
    process_->mapAll();

    // Thread shim: always present (stats-invisible when unused) so
    // threaded workloads run under every mode and CPU count.
    threads_ = std::make_unique<ThreadRuntime>(
        sim_, "threads", *physmem_, config_.numCpus);
    process_->emulator().setThreadRuntime(threads_.get());

    if (config_.mode == SimMode::FS) {
        fsKernel_ = std::make_unique<FsKernel>(
            sim_, "kernel", clock_, *process_, *physmem_, config_.fs);
    }

    for (unsigned i = 0; i < config_.numCpus; ++i) {
        auto idx = std::to_string(i);
        l1is_.push_back(std::make_unique<mem::Cache>(
            sim_, "cpu" + idx + ".icache", clock_, config_.l1i));
        l1ds_.push_back(std::make_unique<mem::Cache>(
            sim_, "cpu" + idx + ".dcache", clock_, config_.l1d));
        itlbs_.push_back(std::make_unique<mem::Tlb>(
            sim_, "cpu" + idx + ".itlb", config_.itlb));
        dtlbs_.push_back(std::make_unique<mem::Tlb>(
            sim_, "cpu" + idx + ".dtlb", config_.dtlb));

        itlbs_[i]->setPageTable(&process_->pageTable());
        dtlbs_[i]->setPageTable(&process_->pageTable());

        auto cpu = makeCpu(i);
        wireCpu(*cpu, i);
        l1is_[i]->memSidePort().bind(
            xbar_->addUpstreamPort(l1is_[i].get()));
        l1ds_[i]->memSidePort().bind(
            xbar_->addUpstreamPort(l1ds_[i].get()));

        cpus_.push_back(std::move(cpu));
    }

    // Assemble the guest image: optional FS boot prologue first.
    isa::Assembler as(0x1000);
    if (config_.mode == SimMode::FS)
        fsKernel_->emitBoot(as);
    workload.emit(as, config_.numCpus, config_.mode);
    program_ = as.assemble();

    process_->loadImage(program_);
    workload.initMemory(*physmem_);

    // Heap: from just past the image (page aligned) to below stacks.
    Addr heap_base = alignUp(program_.end(), mem::guestPageBytes);
    Addr heap_limit = config_.memBytes -
                      config_.numCpus * Process::stackBytes;
    process_->setHeapRange(heap_base, heap_limit);

    // Reset state: pc at image base, a0 = cpu id, sp = stack top.
    for (unsigned i = 0; i < config_.numCpus; ++i) {
        cpus_[i]->setPc(program_.base);
        cpus_[i]->setArchReg(isa::RegA0, i);
        cpus_[i]->setArchReg(isa::RegSp, process_->stackTop(i));
    }

    // Supervision: an empty event queue while CPUs are running but
    // not all halted means the machine wedged (e.g. a lost memory
    // response), not that the workload finished.
    sim_.setActivityProbe([this] {
        return cpusActivated_ && !allHalted();
    });
    sim_.setDiagProbe([this] {
        std::ostringstream os;
        os << "machine state (" << cpus_.size() << " CPUs, "
           << haltedCount_ << " halted):\n";
        for (const auto &cpu : cpus_) {
            os << "  " << cpu->name() << ": pc=0x" << std::hex
               << cpu->pc() << std::dec << " insts="
               << cpu->numInsts()
               << (cpu->halted() ? " [halted]" : " [running]")
               << "\n";
        }
        return os.str();
    });
}

sim::SimResult
System::run(const sim::RunOptions &options, Tick tick_limit)
{
    sim_.configure(options);
    return run(tick_limit);
}

sim::SimResult
System::run(Tick tick_limit)
{
    if (!activated_) {
        activated_ = true;
        if (sim_.restored()) {
            // A restored machine resumes from the checkpointed event
            // queue: the CPU tick events are already re-scheduled, so
            // activating here would perturb timing. Just rebuild the
            // halt tally the checkpointed callbacks had accumulated.
            haltedCount_ = 0;
            for (auto &cpu : cpus_)
                if (cpu->halted())
                    ++haltedCount_;
        } else {
            sim::SimResult first = sim_.run(0); // init/startup phases
            (void)first;
            for (auto &cpu : cpus_)
                cpu->activate();
        }
        cpusActivated_ = true;
    }
    return sim_.run(tick_limit);
}

bool
System::switchCpu(CpuModel target)
{
    if (target == config_.cpuModel)
        return true;
    g5p_assert(!cpus_.empty(), "switchCpu on an empty machine");
    if (!sim_.advanceToQuiescence())
        return false; // the workload finished during the drain

    // Serialize each core (architectural state + stats) and the
    // pending event schedule into an in-memory checkpoint — the same
    // per-object format takeCheckpoint writes, minus everything that
    // stays in place (memory, caches, TLBs, page table).
    sim::CheckpointOut out;
    for (const auto &cpu : cpus_) {
        out.pushSection(cpu->name());
        cpu->serialize(out);
        sim::serializeGroupStats(*cpu, out);
        out.popSection();
    }
    out.pushSection("eventq");
    sim_.eventq().serializeEvents(out);
    out.popSection();
    sim::CheckpointIn in = sim::CheckpointIn::fromText(out.toText());

    // Tear the old cores out: remember their stats slots (dump order
    // must not change), unbind the L1 cpu-side ports (the request
    // side dies with the core), then destroy — the destructors
    // deschedule tick events and free the ".tick" serial tags the
    // replacement cores re-register under the same names.
    std::vector<std::size_t> slots;
    for (auto &cpu : cpus_) {
        slots.push_back(sim_.childIndex(cpu.get()));
        cpu->icachePort().unbind();
        cpu->dcachePort().unbind();
    }
    cpus_.clear();

    config_.cpuModel = target;
    for (unsigned i = 0; i < config_.numCpus; ++i) {
        auto cpu = makeCpu(i);
        wireCpu(*cpu, i);
        sim_.placeChildAt(cpu.get(), slots[i]);
        cpus_.push_back(std::move(cpu));
    }
    // The replacements missed the cold-start init/regStats/startup
    // phases; run them now, then rebuild the event schedule exactly
    // as restoreCheckpoint does — clear everything (including any
    // startup-scheduled events) and re-schedule in recorded service
    // order, so fresh sequence numbers reproduce the same tie-breaks
    // as a from-checkpoint cold start.
    sim_.initNewObjects();
    sim_.eventq().clear();

    for (auto &cpu : cpus_) {
        in.pushSection(cpu->name());
        cpu->unserialize(in);
        sim::unserializeGroupStats(*cpu, in);
        in.popSection();
    }
    in.pushSection("eventq");
    sim_.eventq().unserializeEvents(in);
    in.popSection();

    // Halted cores restore halted_ directly (no callback fires), so
    // the tally carries over unchanged.
    return true;
}

std::uint64_t
System::result() const
{
    return physmem_->read(GuestWorkload::resultAddr, 8);
}

std::uint64_t
System::totalInsts() const
{
    std::uint64_t total = 0;
    for (const auto &cpu : cpus_)
        total += cpu->numInsts();
    return total;
}

} // namespace g5p::os
