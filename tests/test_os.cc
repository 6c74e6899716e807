/**
 * @file
 * Tests for the OS layer: SE-mode process/syscalls, FS-lite boot,
 * kernel timer activity, and SE-vs-FS behavioural differences.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "os/system.hh"
#include "residency.hh"
#include "workloads/workload.hh"

using namespace g5p;
using namespace g5p::os;

namespace
{

System *
makeSystem(sim::Simulator &sim, const GuestWorkload &wl,
           SimMode mode, unsigned cpus = 1)
{
    SystemConfig cfg;
    cfg.cpuModel = CpuModel::Atomic;
    cfg.mode = mode;
    cfg.numCpus = cpus;
    return new System(sim, cfg, wl);
}

} // namespace

TEST(Process, StackTopsAreDistinctAndAligned)
{
    sim::Simulator sim("system");
    auto wl = workloads::Registry::instance().create("boot-exit");
    SystemConfig cfg;
    cfg.numCpus = 4;
    System system(sim, cfg, *wl);

    auto &proc = system.process();
    std::set<Addr> tops;
    for (unsigned i = 0; i < 4; ++i) {
        Addr top = proc.stackTop(i);
        EXPECT_EQ(top % 16, 0u);
        EXPECT_LT(top, system.physmem().size());
        tops.insert(top);
    }
    EXPECT_EQ(tops.size(), 4u);
    // Stacks are at least stackBytes apart.
    auto it = tops.begin();
    Addr prev = *it++;
    for (; it != tops.end(); ++it) {
        EXPECT_GE(*it - prev, Process::stackBytes - 64);
        prev = *it;
    }
}

TEST(Process, BrkSyscallGrowsHeap)
{
    // Guest program: query brk, grow it by 4KB, re-query.
    class BrkWorkload : public GuestWorkload
    {
      public:
        std::string name() const override { return "brk"; }

        void
        emit(isa::Assembler &as, unsigned, SimMode) const override
        {
            using namespace isa;
            as.label("_start");
            as.li(RegA7, 214);
            as.li(RegA0, 0);
            as.ecall();            // a0 = current brk
            as.mv(RegS0, RegA0);
            as.addi(RegA0, RegS0, 4096);
            as.ecall();            // grow
            as.sub(RegS1, RegA0, RegS0); // should be 4096
            as.li(RegT0, (std::int64_t)resultAddr);
            as.sd(RegS1, RegT0, 0);
            as.halt();
        }
    } wl;

    sim::Simulator sim("system");
    std::unique_ptr<System> system(
        makeSystem(sim, wl, SimMode::SE));
    system->run();
    EXPECT_EQ(system->result(), 4096u);
}

TEST(Process, ExitSyscallHaltsCpu)
{
    class ExitWorkload : public GuestWorkload
    {
      public:
        std::string name() const override { return "exit"; }

        void
        emit(isa::Assembler &as, unsigned, SimMode) const override
        {
            using namespace isa;
            as.label("_start");
            as.li(RegA7, 93);
            as.li(RegA0, 17);
            as.ecall(); // never returns
            as.halt();
        }
    } wl;

    sim::Simulator sim("system");
    std::unique_ptr<System> system(
        makeSystem(sim, wl, SimMode::SE));
    auto res = system->run();
    EXPECT_EQ(res.cause, sim::ExitCause::Finished);
    EXPECT_EQ(system->process().emulator().exitStatus(), 17u);
}

TEST(Process, GetCpuSyscall)
{
    class GetCpuWorkload : public GuestWorkload
    {
      public:
        std::string name() const override { return "getcpu"; }

        void
        emit(isa::Assembler &as, unsigned num_cpus,
             SimMode) const override
        {
            using namespace isa;
            as.label("_start");
            as.li(RegA7, 168);
            as.ecall();
            as.mv(RegS1, RegA0);
            // Only CPU0 reports (single-CPU test).
            as.li(RegT0, (std::int64_t)resultAddr);
            as.sd(RegS1, RegT0, 0);
            as.halt();
        }
    } wl;

    sim::Simulator sim("system");
    std::unique_ptr<System> system(
        makeSystem(sim, wl, SimMode::SE));
    system->run();
    EXPECT_EQ(system->result(), 0u);
}

TEST(FsKernel, BootRunsBeforeWorkload)
{
    auto wl = workloads::Registry::instance().create("boot-exit");

    sim::Simulator sim("system");
    std::unique_ptr<System> system(
        makeSystem(sim, *wl, SimMode::FS));
    auto res = system->run();
    EXPECT_EQ(res.cause, sim::ExitCause::Finished);
    EXPECT_EQ(system->result(), 0xb007e817u);
    // The boot flag must have been published by the boot code.
    EXPECT_EQ(system->physmem().read(FsKernel::bootFlagAddr, 8), 1u);
    // And the boot page-table scratch region was filled.
    EXPECT_NE(system->physmem().read(FsKernel::bootTableAddr, 8), 0u);
}

TEST(FsKernel, FsExecutesMoreInstructionsThanSe)
{
    auto wl = workloads::Registry::instance().create("boot-exit");

    sim::Simulator sim_se("system");
    std::unique_ptr<System> se(makeSystem(sim_se, *wl, SimMode::SE));
    se->run();

    sim::Simulator sim_fs("system");
    std::unique_ptr<System> fs(makeSystem(sim_fs, *wl, SimMode::FS));
    fs->run();

    EXPECT_GT(fs->totalInsts(), se->totalInsts() + 500)
        << "FS boot must add substantial guest work";
    EXPECT_EQ(se->result(), fs->result());
}

TEST(FsKernel, SecondaryCpusWaitForBoot)
{
    auto wl = workloads::Registry::instance().create("boot-exit");
    sim::Simulator sim("system");
    std::unique_ptr<System> system(
        makeSystem(sim, *wl, SimMode::FS, 4));
    auto res = system->run();
    EXPECT_EQ(res.cause, sim::ExitCause::Finished);
    EXPECT_EQ(system->result(), 0xb007e817u);
    EXPECT_TRUE(system->allHalted());
}

TEST(FsKernel, TimerTicksAccumulate)
{
    // A long-ish busy loop in FS mode must see scheduler ticks.
    class SpinWorkload : public GuestWorkload
    {
      public:
        std::string name() const override { return "spin"; }

        void
        emit(isa::Assembler &as, unsigned, SimMode) const override
        {
            using namespace isa;
            as.label("_start");
            as.li(RegS0, 0);
            as.li(RegT3, 60000);
            as.label("loop");
            as.addi(RegS0, RegS0, 1);
            as.blt(RegS0, RegT3, "loop");
            as.halt();
        }
    } wl;

    sim::Simulator sim("system");
    std::unique_ptr<System> system(
        makeSystem(sim, wl, SimMode::FS));
    system->run();

    // 60k insts at 2GHz = 30us of guest time; the 10us timer must
    // have fired at least twice. Find its stat through the tree.
    const auto *stat = sim.findStat("kernel.timerTicks");
    ASSERT_NE(stat, nullptr);
    EXPECT_GE(stat->total(), 2.0);
}

TEST(System, GuestMemoryStaysOutOfHostMemoryUntilTouched)
{
    // Building a machine must cost only the guest pages its loader
    // writes, not a zero-fill of all of them. These are the
    // benchmark's workloads whose images are small; canneal's loader
    // writes half of guest memory, so it is not among them.
    struct Case
    {
        const char *workload;
        double scale;
        unsigned cpus;
    };
    for (const Case &c : {Case{"sieve", 0.125, 1},
                          Case{"water_nsquared_long", 4, 1},
                          Case{"lu_threads", 7.5, 4}}) {
        auto wl = workloads::Registry::instance().create(c.workload,
                                                         c.scale);
        sim::Simulator sim("system");
        SystemConfig cfg;
        cfg.cpuModel = CpuModel::Timing;
        cfg.numCpus = c.cpus;
        System system(sim, cfg, *wl);

        const auto &guest = system.physmem().backing();
        std::size_t pages = guest.size() / test::hostPageBytes();
        std::size_t resident =
            test::residentPages(guest.data(), guest.size());
        EXPECT_LT(resident * 20, pages)
            << c.workload << ": " << resident << " of " << pages
            << " guest pages resident after construction ("
            << system.physmem().pagesTouched() << " touched)";
    }
}

TEST(SystemConfig, StatsDumpContainsAllComponents)
{
    auto wl = workloads::Registry::instance().create("sieve", 0.1);
    sim::Simulator sim("system");
    SystemConfig cfg;
    System system(sim, cfg, *wl);
    system.run();

    std::ostringstream os;
    sim.dumpStats(os);
    std::string dump = os.str();
    for (const char *needle :
         {"cpu0.committedInsts", "cpu0.icache.hits",
          "cpu0.dcache.misses", "l2.hits", "dram.reads",
          "cpu0.itlb.missRate", "physmem.pagesTouched",
          "xbar.transactions"}) {
        EXPECT_NE(dump.find(needle), std::string::npos)
            << "missing stat " << needle;
    }
}
