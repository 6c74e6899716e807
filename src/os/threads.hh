/**
 * @file
 * Pthread-like guest threading shim for multi-core SE/FS runs.
 *
 * mg5's guest ISA has no atomic read-modify-write instructions, so
 * the thread primitives are syscalls: the event loop services one
 * instruction at a time, which makes every syscall atomic with
 * respect to all guest CPUs. Worker CPUs start parked in a guest
 * spin loop watching a per-CPU mailbox (two 8-byte words: entry
 * address and argument); ThreadSpawn writes a worker's mailbox and
 * the worker calls through it, runs the entry function, notifies
 * exit and re-parks. The mailbox words live in ordinary cacheable
 * guest memory, so parking and waking deliberately exercise the
 * coherence protocol.
 *
 * The shim is intentionally SPLASH-style minimal: spawn binds one
 * thread to one idle CPU (no oversubscription), join spins, and
 * barriers are generation-counted so they can be reused across
 * phases.
 */

#ifndef G5P_OS_THREADS_HH
#define G5P_OS_THREADS_HH

#include <cstdint>
#include <map>
#include <vector>

#include "base/types.hh"
#include "sim/sim_object.hh"

namespace g5p::cpu { class BaseCpu; }
namespace g5p::mem { class PhysicalMemory; }
namespace g5p::isa { class Assembler; }

namespace g5p::os
{

/** Thread-shim syscall numbers (a7), above the m5ops range. */
enum class ThreadCall : std::uint64_t
{
    Spawn = 1010,      ///< a0 = entry vaddr, a1 = arg; ret cpu or -1
    Join = 1011,       ///< a0 = tid; ret 0 once exited (guest spins)
    Barrier = 1012,    ///< a0 = id, a1 = n; ret 0 released / 1 spin
    ExitNotify = 1013, ///< worker's entry function returned
};

class ThreadRuntime : public sim::SimObject
{
  public:
    ThreadRuntime(sim::Simulator &sim, const std::string &name,
                  mem::PhysicalMemory &physmem, unsigned num_cpus);

    /** True if @p nr belongs to the thread shim. */
    static bool handles(std::uint64_t nr)
    {
        return nr >= (std::uint64_t)ThreadCall::Spawn &&
               nr <= (std::uint64_t)ThreadCall::ExitNotify;
    }

    /** Service the thread syscall pending on @p cpu (a0 = result). */
    void emulate(cpu::BaseCpu &cpu);

    /** @{ Guest memory map: one 16-byte mailbox per CPU. */
    static constexpr Addr mailboxBase = 0xb00;
    static constexpr Addr mailboxAddr(unsigned cpu_id)
    { return mailboxBase + cpu_id * 16; }
    /** Mailbox entry value that tells a parked worker to halt. */
    static constexpr std::uint64_t shutdownSentinel = 1;
    /** @} */

    /** Callee-saved register (x18/s2) holding the CPU id inside the
     *  park loop; entry functions must preserve it. */
    static constexpr RegIndex cpuIdReg = 18;

    /**
     * @{ Guest-side code emitters. emitThreadEntry goes first at
     * _start (saves the cpu id, parks workers); the main CPU's code
     * follows, ending with emitShutdown + halt; emitWorkerLoop emits
     * the shared park loop once, anywhere after the main code.
     */
    static void emitThreadEntry(isa::Assembler &as);
    static void emitWorkerLoop(isa::Assembler &as);
    static void emitShutdown(isa::Assembler &as, unsigned num_cpus);
    /** Spin until barrier @p id releases all @p n participants. The
     *  label prefix must be unique within the program. */
    static void emitBarrier(isa::Assembler &as, std::uint64_t id,
                            std::uint64_t n,
                            const std::string &label_prefix);
    /** @} */

    /** Host-side introspection for tests. */
    std::uint64_t spawns() const { return spawns_; }

    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(const sim::CheckpointIn &cp) override;

  private:
    enum class TState : std::uint8_t { Idle, Running, Exited };

    struct Barrier
    {
        std::uint64_t gen = 0;
        std::uint64_t count = 0;
        std::vector<std::uint64_t> cpuGen;
        std::vector<std::uint8_t> waiting;
    };

    std::uint64_t spawn(std::uint64_t entry, std::uint64_t arg);
    std::uint64_t join(std::uint64_t tid);
    std::uint64_t barrier(unsigned cpu_id, std::uint64_t id,
                          std::uint64_t n);
    std::uint64_t exitNotify(unsigned cpu_id);

    mem::PhysicalMemory &physmem_;
    unsigned numCpus_;
    std::vector<TState> state_; ///< per CPU; cpu 0 is the main thread
    std::map<std::uint64_t, Barrier> barriers_;
    std::uint64_t spawns_ = 0;
};

} // namespace g5p::os

#endif // G5P_OS_THREADS_HH
