/**
 * @file
 * FaultInjector: deterministic, seeded fault injection for robustness
 * testing.
 *
 * A profiling campaign that survives hardware-grade misbehaviour needs
 * to be *tested* against that misbehaviour. The injector produces
 * three fault families, all driven by one seeded Rng so every scenario
 * replays bit-identically:
 *
 *  - DRAM bit flips: scheduled events that flip one bit of the
 *    PhysicalMemory backing store behind the simulation's back
 *    (PhysicalMemory::flipBit — no stats, no trace side effects);
 *  - timing-response faults: via the TimingFaultHook interposer the
 *    injector drops or delays responses anywhere in the memory system
 *    (a dropped response wedges the requesting CPU, which the
 *    Simulator watchdog then reports as a deadlock);
 *  - checkpoint I/O failures: an injected CheckpointIo shim fails the
 *    first N writes and/or reads with a CheckpointError, exercising
 *    the retry/backoff and corruption-rejection paths.
 *
 * The injector installs its hooks (TimingFaultHook, CheckpointIo) on
 * construction and restores the previous ones on destruction; the
 * hooks are thread-local (PR 5), so each pooled simulation sees at
 * most its own injector.
 *
 * Multi-core determinism contract (PR 8): on an N-core guest every
 * fault family is well-defined per core, not a function of how the
 * cores' memory traffic happens to interleave —
 *
 *  - bit flips draw from a dedicated stream, so the flip schedule
 *    (addresses, bits, ticks) is identical for every core count and
 *    CPU model given the same params;
 *  - timing-response faults draw from a per-requesting-core stream
 *    keyed by Packet::requestorId (the CPU id; responses with no
 *    requestor, e.g. tester probes, use a shared fallback stream),
 *    so whether core 0's third response is dropped cannot depend on
 *    core 1's traffic volume. respFaultMax likewise bounds faults
 *    *per core* (single-core behaviour is unchanged).
 */

#ifndef G5P_MEM_FAULT_INJECTOR_HH
#define G5P_MEM_FAULT_INJECTOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"

namespace g5p::mem
{

class PhysicalMemory;

/** Knobs for FaultInjector. Defaults inject nothing. */
struct FaultInjectorParams
{
    /** Seed for the fault Rng (address, bit and chance draws). */
    std::uint64_t seed = 1;

    /** @{ DRAM bit flips: @p bitFlips flips starting at tick
     *  @p firstFlipAt, one every @p flipPeriod ticks, at uniform
     *  random byte/bit positions in [flipBase, flipBase+flipBytes)
     *  (flipBytes 0 = up to the end of memory). */
    unsigned bitFlips = 0;
    Addr flipBase = 0;
    std::uint64_t flipBytes = 0;
    Tick firstFlipAt = 0;
    Tick flipPeriod = 1'000'000;
    /** @} */

    /** @{ Timing-response faults: each response is independently
     *  dropped with @p dropChance, else delayed by @p delayTicks with
     *  @p delayChance, drawn from the requesting core's own stream.
     *  At most @p respFaultMax faults are injected *per core*
     *  (0 = unlimited). */
    double dropChance = 0.0;
    double delayChance = 0.0;
    Tick delayTicks = 0;
    unsigned respFaultMax = 0;
    /** @} */

    /** @{ Checkpoint I/O: fail the first @p failWrites writeText and
     *  @p failReads readText calls with a CheckpointError. */
    unsigned failWrites = 0;
    unsigned failReads = 0;
    /** @} */
};

class FaultInjector : public sim::SimObject, private TimingFaultHook
{
  public:
    FaultInjector(sim::Simulator &sim, const std::string &name,
                  const FaultInjectorParams &params);
    ~FaultInjector() override;

    /** Target of the bit-flip campaign (required if bitFlips > 0). */
    void setMemory(PhysicalMemory *mem) { mem_ = mem; }

    const FaultInjectorParams &params() const { return params_; }

    /** @{ Faults injected so far (aggregate over all cores). */
    unsigned flipsInjected() const { return flipsDone_; }
    unsigned dropsInjected() const { return dropsDone_; }
    unsigned delaysInjected() const { return delaysDone_; }
    unsigned ioFaultsInjected() const { return ioFaultsDone_; }
    /** @} */

    /** Per-core response-delay count (0 for untouched cores; pass
     *  -1 for the shared no-requestor stream). */
    unsigned delaysInjectedOn(int core) const;

    /** The bit flips performed so far, in schedule order. */
    const std::vector<std::pair<Addr, unsigned>> &flipLog() const
    { return flipLog_; }

    void init() override;
    void startup() override;

    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(const sim::CheckpointIn &cp) override;

    void regStats() override;

  private:
    /** Injected checkpoint-I/O shim failing the first N calls. */
    class FaultyIo : public sim::CheckpointIo
    {
      public:
        explicit FaultyIo(FaultInjector &owner) : owner_(owner) {}
        void writeText(const std::string &path,
                       const std::string &text) override;
        std::string readText(const std::string &path) override;

      private:
        FaultInjector &owner_;
    };

    bool onTimingResp(ResponsePort &src, RequestPort &dst,
                      PacketPtr pkt) override;

    /** Flip-event action: corrupt one bit, schedule the next flip. */
    void doFlip();

    /** Per-core state for the timing-response fault family. */
    struct CoreFaults
    {
        Rng rng{0};
        unsigned drops = 0;
        unsigned delays = 0;
    };

    /** The fault stream of requestor @p core (grown on demand;
     *  core < 0 selects the shared fallback stream). */
    CoreFaults &coreFaults(int core);

    /** Seed of core @p core's response stream (stable per core, so
     *  growth order cannot matter). */
    std::uint64_t coreSeed(int core) const;

    FaultInjectorParams params_;
    /** Dedicated bit-flip stream: the flip schedule is a function of
     *  the params alone, never of response traffic. */
    Rng flipRng_;
    PhysicalMemory *mem_ = nullptr;

    unsigned flipsDone_ = 0;
    unsigned dropsDone_ = 0;
    unsigned delaysDone_ = 0;
    unsigned ioFaultsDone_ = 0;
    unsigned writeFailsLeft_ = 0;
    unsigned readFailsLeft_ = 0;

    std::vector<std::pair<Addr, unsigned>> flipLog_;
    /** Per-requestor streams, indexed by core id (grown on demand). */
    std::vector<CoreFaults> perCore_;
    /** Fallback stream for responses with no requestor id. */
    CoreFaults shared_;

    FaultyIo io_;
    TimingFaultHook *prevHook_ = nullptr;
    sim::CheckpointIo *prevIo_ = nullptr;

    sim::MemberEventWrapper<&FaultInjector::doFlip> flipEvent_;

    sim::stats::Scalar statFlips_;
    sim::stats::Scalar statDrops_;
    sim::stats::Scalar statDelays_;
    sim::stats::Scalar statIoFaults_;
};

} // namespace g5p::mem

#endif // G5P_MEM_FAULT_INJECTOR_HH
