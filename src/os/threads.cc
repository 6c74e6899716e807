#include "os/threads.hh"

#include "base/logging.hh"
#include "cpu/base_cpu.hh"
#include "isa/assembler.hh"
#include "mem/physical.hh"
#include "sim/serialize.hh"
#include "trace/recorder.hh"

namespace g5p::os
{

ThreadRuntime::ThreadRuntime(sim::Simulator &sim,
                             const std::string &name,
                             mem::PhysicalMemory &physmem,
                             unsigned num_cpus)
    : sim::SimObject(sim, name, nullptr, num_cpus * 16),
      physmem_(physmem), numCpus_(num_cpus),
      state_(num_cpus, TState::Idle)
{
    // CPU 0 runs the main thread from reset.
    state_[0] = TState::Running;
}

void
ThreadRuntime::emulate(cpu::BaseCpu &cpu)
{
    G5P_TRACE_SCOPE("ThreadRuntime::emulate", Syscall, false);
    auto nr = (ThreadCall)cpu.readArchReg(isa::RegA7);
    std::uint64_t a0 = cpu.readArchReg(isa::RegA0);
    std::uint64_t a1 = cpu.readArchReg(isa::RegA1);
    unsigned cpu_id = (unsigned)cpu.cpuId();

    std::uint64_t result = 0;
    switch (nr) {
      case ThreadCall::Spawn:      result = spawn(a0, a1); break;
      case ThreadCall::Join:       result = join(a0); break;
      case ThreadCall::Barrier:    result = barrier(cpu_id, a0, a1);
                                   break;
      case ThreadCall::ExitNotify: result = exitNotify(cpu_id); break;
      default:
        g5p_fatal("bad thread syscall %llu", (unsigned long long)nr);
    }
    cpu.setArchReg(isa::RegA0, result);
}

std::uint64_t
ThreadRuntime::spawn(std::uint64_t entry, std::uint64_t arg)
{
    // Pick the lowest idle CPU; the main thread owns CPU 0 forever.
    for (unsigned c = 1; c < numCpus_; ++c) {
        if (state_[c] != TState::Idle)
            continue;
        state_[c] = TState::Running;
        spawns_ += 1;
        // Argument first: the parked worker polls the entry word and
        // syscalls are atomic wrt all guest CPUs anyway.
        physmem_.write(mailboxAddr(c) + 8, 8, arg);
        physmem_.write(mailboxAddr(c), 8, entry);
        return c;
    }
    return (std::uint64_t)-1;
}

std::uint64_t
ThreadRuntime::join(std::uint64_t tid)
{
    if (tid == 0 || tid >= numCpus_)
        return 0; // nothing to join
    switch (state_[tid]) {
      case TState::Running: return 1; // guest keeps spinning
      case TState::Exited:
        state_[tid] = TState::Idle; // consumed; slot reusable
        return 0;
      case TState::Idle: return 0;
    }
    return 0;
}

std::uint64_t
ThreadRuntime::exitNotify(unsigned cpu_id)
{
    g5p_assert(cpu_id != 0 && cpu_id < numCpus_ &&
               state_[cpu_id] == TState::Running,
               "%s: stray thread exit on cpu%u", name().c_str(),
               cpu_id);
    state_[cpu_id] = TState::Exited;
    // Clear the mailbox so the park loop resumes waiting.
    physmem_.write(mailboxAddr(cpu_id), 8, 0);
    physmem_.write(mailboxAddr(cpu_id) + 8, 8, 0);
    return 0;
}

std::uint64_t
ThreadRuntime::barrier(unsigned cpu_id, std::uint64_t id,
                       std::uint64_t n)
{
    g5p_assert(n >= 1 && n <= numCpus_,
               "%s: barrier %llu with %llu participants on a %u-CPU "
               "machine", name().c_str(), (unsigned long long)id,
               (unsigned long long)n, numCpus_);
    Barrier &b = barriers_[id];
    if (b.cpuGen.empty()) {
        b.cpuGen.resize(numCpus_, 0);
        b.waiting.resize(numCpus_, 0);
    }

    if (b.waiting[cpu_id]) {
        // Re-poll: released once the generation moved past ours.
        if (b.gen >= b.cpuGen[cpu_id]) {
            b.waiting[cpu_id] = 0;
            return 0;
        }
        return 1;
    }

    // New arrival for the current generation.
    b.cpuGen[cpu_id] = b.gen + 1;
    b.count += 1;
    if (b.count == n) {
        // Last arriver releases everyone and passes straight through.
        b.count = 0;
        b.gen += 1;
        return 0;
    }
    b.waiting[cpu_id] = 1;
    return 1;
}

void
ThreadRuntime::emitThreadEntry(isa::Assembler &as)
{
    // Save the cpu id where the park loop (and spawned entry
    // functions, by convention) will not clobber it, then park
    // everyone but CPU 0.
    as.mv(cpuIdReg, isa::RegA0);
    as.bne(isa::RegA0, isa::RegZero, "g5p_park");
}

void
ThreadRuntime::emitWorkerLoop(isa::Assembler &as)
{
    using namespace isa;
    as.label("g5p_park");
    // t0 = &mailbox[cpu]
    as.li(RegT0, (std::int64_t)mailboxBase);
    as.slli(RegT1, cpuIdReg, 4);
    as.add(RegT0, RegT0, RegT1);
    as.label("g5p_park_spin");
    as.ld(RegT1, RegT0, 0);
    as.beq(RegT1, RegZero, "g5p_park_spin");
    as.addi(RegT2, RegZero, (std::int32_t)shutdownSentinel);
    as.beq(RegT1, RegT2, "g5p_park_halt");
    as.ld(RegA0, RegT0, 8);           // argument
    as.jalr(RegRa, RegT1, 0);         // call entry(arg)
    as.li(RegA7, (std::int64_t)ThreadCall::ExitNotify);
    as.ecall();
    as.j("g5p_park");
    as.label("g5p_park_halt");
    as.halt();
}

void
ThreadRuntime::emitShutdown(isa::Assembler &as, unsigned num_cpus)
{
    using namespace isa;
    if (num_cpus <= 1)
        return;
    // Plain guest stores of the sentinel into each worker mailbox:
    // the wakeup travels through the coherent memory system.
    as.li(RegT0, (std::int64_t)mailboxAddr(1));
    as.addi(RegT1, RegZero, (std::int32_t)shutdownSentinel);
    for (unsigned c = 1; c < num_cpus; ++c)
        as.sd(RegT1, RegT0, (std::int32_t)((c - 1) * 16));
}

void
ThreadRuntime::emitBarrier(isa::Assembler &as, std::uint64_t id,
                           std::uint64_t n,
                           const std::string &label_prefix)
{
    using namespace isa;
    const std::string spin = label_prefix + "_bar";
    as.label(spin);
    as.li(RegA0, (std::int64_t)id);
    as.li(RegA1, (std::int64_t)n);
    as.li(RegA7, (std::int64_t)ThreadCall::Barrier);
    as.ecall();
    as.bne(RegA0, RegZero, spin);
}

void
ThreadRuntime::serialize(sim::CheckpointOut &cp) const
{
    std::vector<std::uint64_t> states(state_.size());
    for (std::size_t i = 0; i < state_.size(); ++i)
        states[i] = (std::uint64_t)state_[i];
    cp.paramVector("threadState", states);
    cp.param("spawns", spawns_);

    std::vector<std::uint64_t> ids;
    for (const auto &[id, b] : barriers_)
        ids.push_back(id);
    cp.paramVector("barrierIds", ids);
    for (const auto &[id, b] : barriers_) {
        const std::string p = "barrier" + std::to_string(id);
        cp.param(p + "Gen", b.gen);
        cp.param(p + "Count", b.count);
        cp.paramVector(p + "CpuGen", b.cpuGen);
        std::vector<std::uint64_t> waiting(b.waiting.begin(),
                                           b.waiting.end());
        cp.paramVector(p + "Waiting", waiting);
    }
}

void
ThreadRuntime::unserialize(const sim::CheckpointIn &cp)
{
    std::vector<std::uint64_t> states;
    cp.paramVector("threadState", states);
    g5p_assert(states.size() == state_.size(),
               "%s: thread checkpoint CPU-count mismatch",
               name().c_str());
    for (std::size_t i = 0; i < states.size(); ++i)
        state_[i] = (TState)states[i];
    cp.param("spawns", spawns_);

    std::vector<std::uint64_t> ids;
    cp.paramVector("barrierIds", ids);
    barriers_.clear();
    for (std::uint64_t id : ids) {
        const std::string p = "barrier" + std::to_string(id);
        Barrier b;
        cp.param(p + "Gen", b.gen);
        cp.param(p + "Count", b.count);
        cp.paramVector(p + "CpuGen", b.cpuGen);
        std::vector<std::uint64_t> waiting;
        cp.paramVector(p + "Waiting", waiting);
        b.waiting.assign(waiting.begin(), waiting.end());
        barriers_[id] = std::move(b);
    }
}

} // namespace g5p::os
