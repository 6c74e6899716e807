/**
 * @file
 * Coherence stress tester, after gem5's RubyRandomTester / MemTest.
 *
 * The tester builds its own private memory rig — N "tester cores"
 * (bare request ports, no ISA) each behind a private L1D, a coherent
 * xbar with its snoop filter, a shared L2 and DRAM over a functional
 * backing store — and hammers it with a seeded random mix of loads
 * and stores designed to maximise protocol stress:
 *
 *  - an *action pool* of false-shared lines: every core owns a 4-byte
 *    slot inside each line, so stores from different cores fight for
 *    ownership of the same line (S->M upgrades, invalidations,
 *    upgrade/fill races) while never aliasing each other's bytes;
 *  - a *check pool* of read-only lines holding a fixed seeded
 *    pattern, so wrong-address or wrong-data plumbing shows up as a
 *    pattern mismatch.
 *
 * Verification is layered: every load is value-checked against the
 * host-side last-writer table at completion time; after every
 * completed op the tester sweeps the pool lines and asserts the
 * protocol invariants (at most one writable holder per line; every
 * valid copy is covered by the xbar's snoop filter); and the run
 * itself proves forward progress — a lost response deadlocks the
 * event queue, which the simulator's activity probe reports.
 * Violations are collected (not fatal) so tests can print them with
 * the flight-recorder diagnostic dump.
 */

#ifndef G5P_MEM_MEM_TESTER_HH
#define G5P_MEM_MEM_TESTER_HH

#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/physical.hh"
#include "mem/port.hh"
#include "mem/xbar.hh"
#include "sim/clocked_object.hh"

namespace g5p::mem
{

/** Tester shape and op mix. */
struct MemTesterParams
{
    unsigned numCores = 2;        ///< tester cores (1..16)
    std::uint64_t seed = 1;       ///< master seed (per-core streams)
    std::uint64_t opsPerCore = 1000;
    unsigned actionLines = 4;     ///< false-shared, written pool
    unsigned checkLines = 8;      ///< read-only patterned pool
    bool atomicMode = false;      ///< drive the atomic protocol
    unsigned maxDelayCycles = 8;  ///< random gap between ops
    unsigned percentChecks = 30;  ///< check-pool reads
    unsigned percentWrites = 35;  ///< action writes (rest: action reads)
    std::uint64_t memBytes = 1 << 20;
};

class MemTester : public sim::ClockedObject
{
  public:
    MemTester(sim::Simulator &sim, const std::string &name,
              const MemTesterParams &params);
    ~MemTester() override;

    void startup() override;

    /** @{ Pool layout in the tester's private address space. */
    static constexpr Addr actionBase = 0x40000;
    static constexpr Addr checkBase = 0x80000;
    /** @} */

    /** True once every core has completed its op budget. */
    bool allDone() const;

    /** Invariant/value-check failures, in detection order. */
    const std::vector<std::string> &violations() const
    { return violations_; }

    /** @{ Progress counters. */
    std::uint64_t loads() const { return loads_; }
    std::uint64_t stores() const { return stores_; }
    std::uint64_t checkReads() const { return checkReads_; }
    std::uint64_t sweeps() const { return sweeps_; }
    /** @} */

    /** @{ Race counters summed over the tester L1s. */
    std::uint64_t upgradeRaces() const;
    std::uint64_t fillRaces() const;
    /** @} */

    /** @{ Rig access for white-box assertions. */
    Cache &l1(unsigned i) { return *l1s_.at(i); }
    unsigned numCores() const { return params_.numCores; }
    /** @} */

    void regStats() override;

  private:
    class CorePort : public RequestPort
    {
      public:
        CorePort(MemTester &tester, unsigned index,
                 const std::string &name)
            : RequestPort(name), tester_(tester), index_(index)
        {}
        void recvTimingResp(PacketPtr pkt) override
        { tester_.completeTiming(index_, pkt); }

      private:
        MemTester &tester_;
        unsigned index_;
    };

    /** One outstanding-op-at-a-time tester core. */
    struct Core
    {
        Rng rng{0};
        std::unique_ptr<CorePort> port;
        std::uint64_t done = 0;
        std::uint64_t writeSeq = 0;
        bool busy = false;
        /** @{ The op in flight (timing mode). */
        bool isWrite = false;
        bool isCheck = false;     ///< read from the check pool
        Addr addr = 0;
        unsigned size = 0;
        std::uint64_t storeVal = 0;
        unsigned targetLine = 0;  ///< action-pool index
        unsigned targetSlot = 0;  ///< action-pool slot (core index)
        std::uint64_t checkExpect = 0;
        /** @} */
    };

    /** Address of @p core's private slot in action line @p line. */
    Addr slotAddr(unsigned line, unsigned core) const
    { return actionBase + (Addr)line * lineBytes + core * 4; }

    /** Seeded pattern word @p word of check line @p line. */
    std::uint64_t checkPattern(unsigned line, unsigned word) const;

    /** Pick the next op for @p core into its in-flight fields. */
    void chooseOp(unsigned core);

    /** Run one op (choose, access, verify, reschedule). */
    void tick(unsigned core);

    void completeTiming(unsigned core, PacketPtr pkt);

    /** Functional access + value check at completion time. */
    void finishAccess(unsigned core);

    /** Book-keeping after an op fully completes. */
    void finishOp(unsigned core);

    void scheduleNext(unsigned core);

    /** Assert the protocol invariants over both pools. */
    void sweepInvariants();

    void fail(const std::string &what);

    MemTesterParams params_;

    std::unique_ptr<PhysicalMemory> physmem_;
    std::unique_ptr<DramCtrl> dram_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<CoherentXbar> xbar_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::vector<Core> cores_;

    /** Host-side truth: last completed store per action slot,
     *  indexed [line * numCores + slot]. */
    std::vector<std::uint64_t> lastValue_;

    std::vector<std::string> violations_;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t checkReads_ = 0;
    std::uint64_t sweeps_ = 0;
    unsigned finishedCores_ = 0;

    sim::stats::Scalar statLoads_;
    sim::stats::Scalar statStores_;
    sim::stats::Scalar statChecks_;
};

} // namespace g5p::mem

#endif // G5P_MEM_MEM_TESTER_HH
