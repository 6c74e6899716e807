#include "os/fs_kernel.hh"

#include "trace/recorder.hh"

namespace g5p::os
{

using namespace isa;

FsKernel::FsKernel(sim::Simulator &sim, const std::string &name,
                   const sim::ClockDomain &domain, Process &process,
                   mem::PhysicalMemory &physmem,
                   const FsKernelParams &params)
    : sim::ClockedObject(sim, name, domain, nullptr, 16 * 1024),
      process_(process),
      physmem_(physmem),
      params_(params),
      timerEvent_(this, name + ".timer")
{
    // The timer survives checkpoints: restore re-schedules it by tag
    // (see EventQueue::registerSerial).
    eventQueue().registerSerial(name + ".timer", &timerEvent_);
}

FsKernel::~FsKernel()
{
    if (timerEvent_.scheduled())
        deschedule(timerEvent_);
    eventQueue().unregisterSerial(name() + ".timer");
}

void
FsKernel::emitBoot(isa::Assembler &as) const
{
    // CPU0 boots; the others spin on the boot flag.
    as.bne(RegA0, RegZero, "fs_secondary_wait");

    // --- BSS clear loop: zero the boot scratch region. ---
    as.li(RegT0, bootTableAddr);
    as.li(RegT1, bootTableAddr +
                 (std::int64_t)params_.bootTableEntries * 8);
    as.label("fs_bss_clear");
    as.sd(RegZero, RegT0, 0);
    as.addi(RegT0, RegT0, 8);
    as.blt(RegT0, RegT1, "fs_bss_clear");

    // --- Page-table construction: fill descriptor slots. ---
    as.li(RegT0, bootTableAddr);
    as.li(RegT2, 0); // frame cursor
    as.li(RegT1, (std::int64_t)params_.bootTableEntries);
    as.label("fs_pt_build");
    as.slli(RegS0, RegT2, 12);   // frame address
    as.opImm(Opcode::Ori, RegS0, RegS0, 0x7); // V|R|W bits
    as.sd(RegS0, RegT0, 0);
    as.addi(RegT0, RegT0, 8);
    as.addi(RegT2, RegT2, 1);
    as.blt(RegT2, RegT1, "fs_pt_build");

    // --- Device probe: read-modify-write the "device" region. ---
    as.li(RegT0, bootTableAddr);
    as.li(RegT1, 16);
    as.li(RegT2, 0);
    as.label("fs_dev_probe");
    as.ld(RegS0, RegT0, 0);
    as.xor_(RegS0, RegS0, RegT1);
    as.sd(RegS0, RegT0, 0);
    as.addi(RegT0, RegT0, 64);
    as.addi(RegT2, RegT2, 1);
    as.blt(RegT2, RegT1, "fs_dev_probe");

    // --- Publish boot completion and enter the workload. ---
    as.li(RegT0, bootFlagAddr);
    as.li(RegT1, 1);
    as.sd(RegT1, RegT0, 0);
    as.j("_start");

    // Secondary CPUs: spin until the flag is set.
    as.label("fs_secondary_wait");
    as.li(RegT0, bootFlagAddr);
    as.label("fs_spin");
    as.ld(RegT1, RegT0, 0);
    as.beq(RegT1, RegZero, "fs_spin");
    as.j("_start");
}

void
FsKernel::handleSyscall(cpu::BaseCpu &cpu)
{
    // The trap path exercises simulated-kernel code that SE mode
    // never touches: context save, dispatch table, context restore.
    G5P_TRACE_SCOPE("FsKernel::trapEnter", KernelSim, true);
    kernelSyscalls_ += 1;
    touchState(0, 256, true);
    {
        G5P_TRACE_SCOPE("FsKernel::dispatchSyscall", KernelSim, true);
        process_.handleSyscall(cpu);
    }
    {
        G5P_TRACE_SCOPE("FsKernel::trapReturn", KernelSim, false);
        touchState(256, 128, true);
    }
}

void
FsKernel::startup()
{
    schedule(timerEvent_, curTick() + params_.timerPeriod);
}

void
FsKernel::timerTick()
{
    G5P_TRACE_SCOPE("FsKernel::timerTick", KernelSim, true);
    timerTicks_ += 1;

    // Scheduler bookkeeping: walk the run-queue region.
    {
        G5P_TRACE_SCOPE("FsKernel::schedulerTick", KernelSim, true);
        for (unsigned i = 0; i < 8; ++i)
            touchState(512 + i * 64, 16, i % 2 == 0);
    }
    // Timekeeping update in guest memory (jiffies-like counter).
    {
        G5P_TRACE_SCOPE("FsKernel::updateJiffies", KernelSim, false);
        Addr jiffies = bootTableAddr - 8;
        physmem_.write(jiffies, 8, physmem_.read(jiffies, 8) + 1);
    }

    if (!stopped_)
        schedule(timerEvent_, curTick() + params_.timerPeriod);
}

void
FsKernel::serialize(sim::CheckpointOut &cp) const
{
    cp.param("stopped", (int)stopped_);
}

void
FsKernel::unserialize(const sim::CheckpointIn &cp)
{
    int stopped = 0;
    cp.param("stopped", stopped);
    stopped_ = stopped != 0;
}

void
FsKernel::regStats()
{
    addStat(&timerTicks_, "timerTicks", "kernel scheduler ticks");
    addStat(&kernelSyscalls_, "syscalls",
            "syscalls trapped through the kernel");
}

} // namespace g5p::os
