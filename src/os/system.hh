/**
 * @file
 * System: the top-level factory that assembles a complete simulated
 * machine — CPUs, L1s, coherent xbar, L2, DRAM, TLBs, process or
 * FS-lite kernel — from a SystemConfig, loads a guest workload, and
 * runs it. This is mg5's equivalent of a gem5 Python configuration.
 */

#ifndef G5P_OS_SYSTEM_HH
#define G5P_OS_SYSTEM_HH

#include <memory>
#include <vector>

#include "cpu/atomic_cpu.hh"
#include "cpu/minor_cpu.hh"
#include "cpu/o3/o3_cpu.hh"
#include "cpu/timing_cpu.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/xbar.hh"
#include "os/fs_kernel.hh"
#include "os/process.hh"
#include "os/threads.hh"
#include "sim/simulator.hh"

namespace g5p::os
{

/** The four gem5 CPU detail levels (paper §III). */
enum class CpuModel : std::uint8_t { Atomic, Timing, Minor, O3 };

/** CPU-model name as the paper spells it. */
const char *cpuModelName(CpuModel model);

/** All four models, in increasing detail order. */
inline constexpr CpuModel allCpuModels[] = {
    CpuModel::Atomic, CpuModel::Timing, CpuModel::Minor, CpuModel::O3,
};

/** Simulation modes (paper §II). */
enum class SimMode : std::uint8_t { SE, FS };

/** Mode name ("SE"/"FS"). */
const char *simModeName(SimMode mode);

/** Full machine configuration. */
struct SystemConfig
{
    CpuModel cpuModel = CpuModel::Atomic;
    SimMode mode = SimMode::SE;
    unsigned numCpus = 1;
    std::uint64_t memBytes = 32ull << 20;
    std::uint64_t cpuMHz = 2000;
    std::uint64_t maxInstsPerCpu = 0;

    mem::CacheParams l1i{.sizeBytes = 32 * 1024, .assoc = 4,
                         .tagLatency = 1, .dataLatency = 1,
                         .responseLatency = 1, .numMshrs = 4,
                         .isL1 = true};
    mem::CacheParams l1d{.sizeBytes = 32 * 1024, .assoc = 4,
                         .tagLatency = 1, .dataLatency = 1,
                         .responseLatency = 1, .numMshrs = 8,
                         .isL1 = true};
    mem::CacheParams l2{.sizeBytes = 1024 * 1024, .assoc = 8,
                        .tagLatency = 4, .dataLatency = 6,
                        .responseLatency = 2, .numMshrs = 16,
                        .isL1 = false};
    mem::TlbParams itlb{.entries = 64, .assoc = 4,
                        .walkLatency = 20};
    mem::TlbParams dtlb{.entries = 64, .assoc = 4,
                        .walkLatency = 20};
    mem::XbarParams xbar;
    mem::DramParams dram;
    cpu::MinorParams minor;
    cpu::O3Params o3;
    FsKernelParams fs;
};

/**
 * Interface guest workloads implement (see src/workloads). The same
 * workload runs unchanged on every CPU model and mode.
 *
 * Conventions: every CPU starts at the image base with a0 = cpu id
 * and sp = its stack top; the workload's code begins at label
 * "_start"; the workload stores its final checksum to resultAddr
 * before halting; in multi-CPU runs, worker CPUs publish completion
 * at doneFlagAddr(cpu) and CPU 0 collects.
 */
class GuestWorkload
{
  public:
    virtual ~GuestWorkload() = default;

    /** Workload name as the paper spells it. */
    virtual std::string name() const = 0;

    /** Emit the guest code (must define label "_start"). */
    virtual void emit(isa::Assembler &as, unsigned num_cpus,
                      SimMode mode) const = 0;

    /** Initialize guest data memory before the run. */
    virtual void initMemory(mem::PhysicalMemory &physmem) const {}

    /**
     * Expected value at resultAddr after a correct run (0 = skip
     * verification). Must be CPU-model independent.
     */
    virtual std::uint64_t expectedResult(unsigned num_cpus) const
    { return 0; }

    /** Guest address of the workload checksum. */
    static constexpr Addr resultAddr = 0x800;

    /** Guest address of CPU @p cpu_id's completion flag. */
    static constexpr Addr
    doneFlagAddr(unsigned cpu_id)
    {
        return 0x900 + cpu_id * 8;
    }
};

class System
{
  public:
    /**
     * Build the machine inside @p sim and load @p workload. The
     * System must outlive any run; @p workload is only used during
     * construction.
     */
    System(sim::Simulator &sim, const SystemConfig &config,
           const GuestWorkload &workload);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Activate the CPUs (first call) and run to completion. */
    sim::SimResult run(Tick tick_limit = maxTick);

    /** Same, applying @p options (watchdog, auto-checkpoint,
     *  profiler, fault seed) to the simulator first. */
    sim::SimResult run(const sim::RunOptions &options,
                       Tick tick_limit = maxTick);

    /**
     * Drain-and-switch to @p target between run() calls (gem5's
     * switchCpus): service events to the quiescent point, serialize
     * each core's architectural state, stats and the pending event
     * schedule, destroy the cores, construct @p target cores in
     * place (same names, same wiring, same stats slots), transplant
     * the state, and re-schedule all pending events in recorded
     * service order. Memory, caches, TLBs and the page table stay in
     * place untouched.
     *
     * The result is bit-identical to writing a checkpoint at the
     * same boundary and cold-starting a @p target machine from it
     * (SwitchEquivalenceGate in tests/test_sampling.cc): both paths
     * run the same cross-model unserialize and rebuild the event
     * schedule with fresh sequence numbers in the same order.
     *
     * Commit hooks and instruction milestones on the old cores are
     * not carried over — re-arm them on cpu(i) afterwards.
     *
     * @return false if the simulation exited during the drain (the
     *         workload finished; the machine is left as-is); true on
     *         a completed switch (or a no-op same-model request).
     */
    bool switchCpu(CpuModel target);

    /** @{ Component access. */
    sim::Simulator &simulator() { return sim_; }
    cpu::BaseCpu &cpu(unsigned i) { return *cpus_.at(i); }
    unsigned numCpus() const { return (unsigned)cpus_.size(); }
    mem::Cache &l1i(unsigned i) { return *l1is_.at(i); }
    mem::Cache &l1d(unsigned i) { return *l1ds_.at(i); }
    mem::Cache &l2() { return *l2_; }
    mem::CoherentXbar &xbar() { return *xbar_; }
    mem::Tlb &itlb(unsigned i) { return *itlbs_.at(i); }
    mem::Tlb &dtlb(unsigned i) { return *dtlbs_.at(i); }
    mem::PhysicalMemory &physmem() { return *physmem_; }
    mem::DramCtrl &dram() { return *dram_; }
    Process &process() { return *process_; }
    ThreadRuntime &threads() { return *threads_; }
    const SystemConfig &config() const { return config_; }
    const isa::Program &program() const { return program_; }
    /** @} */

    /** Guest checksum written by the workload. */
    std::uint64_t result() const;

    /** Committed instructions summed over all CPUs. */
    std::uint64_t totalInsts() const;

    /** True once every CPU has halted. */
    bool allHalted() const { return haltedCount_ == cpus_.size(); }

  private:
    void build(const GuestWorkload &workload);
    std::unique_ptr<cpu::BaseCpu> makeCpu(unsigned i);

    /** Attach TLBs, syscall handler, halt callback and L1 ports to
     *  core @p i (shared between build() and switchCpu()). */
    void wireCpu(cpu::BaseCpu &cpu, unsigned i);

    sim::Simulator &sim_;
    SystemConfig config_;
    sim::ClockDomain clock_;

    std::unique_ptr<mem::PhysicalMemory> physmem_;
    std::unique_ptr<mem::DramCtrl> dram_;
    std::unique_ptr<mem::Cache> l2_;
    std::unique_ptr<mem::CoherentXbar> xbar_;
    std::vector<std::unique_ptr<mem::Cache>> l1is_;
    std::vector<std::unique_ptr<mem::Cache>> l1ds_;
    std::vector<std::unique_ptr<mem::Tlb>> itlbs_;
    std::vector<std::unique_ptr<mem::Tlb>> dtlbs_;
    std::vector<std::unique_ptr<cpu::BaseCpu>> cpus_;
    std::unique_ptr<Process> process_;
    std::unique_ptr<ThreadRuntime> threads_;
    std::unique_ptr<FsKernel> fsKernel_;

    isa::Program program_;
    unsigned haltedCount_ = 0;
    bool activated_ = false;
    /** True once the CPUs are really ticking (set after activate(),
     *  or on resume of a restored machine). Gates the deadlock probe
     *  so the init-phase run(0) — queue legitimately empty — is not
     *  reported as a deadlock. */
    bool cpusActivated_ = false;
};

} // namespace g5p::os

#endif // G5P_OS_SYSTEM_HH
