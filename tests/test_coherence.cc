/**
 * @file
 * Coherence verification backbone for the multi-core guest:
 *
 *  - the RubyRandomTester-style stress engine (mem::MemTester):
 *    seeded random load/store mixes over false-shared lines, with
 *    per-address last-writer value checking and protocol-invariant
 *    sweeps, across seeds x core counts x {Atomic, Timing};
 *  - litmus tests (SB, MP, LB, CoRR): table-driven two-thread guest
 *    programs run over many seeded interleavings, asserting every
 *    observed outcome is allowed under sequential consistency;
 *  - determinism gates: the same seed must produce byte-identical
 *    stats dumps, for the tester rig and for a threaded guest;
 *  - multi-core regressions for the formerly single-core paths
 *    (totalInsts aggregation, threaded workload checksums,
 *    fast-forward on a 2-core guest).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "mem/mem_tester.hh"
#include "os/system.hh"
#include "workloads/workload.hh"

using namespace g5p;
using namespace g5p::isa;
using namespace g5p::os;

namespace
{

// ---------------------------------------------------------------
// Random coherence stress (satellite: tester as a ctest suite)
// ---------------------------------------------------------------

struct StressCase
{
    std::uint64_t seed;
    unsigned cores;
    bool atomic;
};

std::string
stressName(const StressCase &c)
{
    std::ostringstream os;
    os << "seed" << c.seed << "_" << c.cores << "core_"
       << (c.atomic ? "Atomic" : "Timing");
    return os.str();
}

/** Build a tester, run it to completion, and report any violation
 *  with the flight-recorder dump attached. */
void
runStress(const mem::MemTesterParams &params)
{
    sim::Simulator sim("tester");
    mem::MemTester tester(sim, "mt", params);

    sim::SimResult res = sim.run();
    ASSERT_EQ(res.cause, sim::ExitCause::Finished)
        << "stress run died: " << sim::exitCauseName(res.cause)
        << "\n" << sim.diagnosticDump();
    ASSERT_TRUE(tester.allDone());

    if (!tester.violations().empty()) {
        std::ostringstream os;
        for (const auto &v : tester.violations())
            os << "  " << v << "\n";
        FAIL() << tester.violations().size()
               << " coherence violation(s):\n" << os.str()
               << "--- flight recorder ---\n" << sim.diagnosticDump();
    }

    // The mix must actually exercise all three op classes.
    EXPECT_GT(tester.loads(), 0u);
    EXPECT_GT(tester.stores(), 0u);
    EXPECT_GT(tester.checkReads(), 0u);
    EXPECT_GT(tester.sweeps(), 0u);
}

class CoherenceStress : public ::testing::TestWithParam<StressCase>
{};

TEST_P(CoherenceStress, NoViolations)
{
    StressCase c = GetParam();
    mem::MemTesterParams p;
    p.numCores = c.cores;
    p.seed = c.seed;
    p.atomicMode = c.atomic;
    p.opsPerCore = 1500;
    runStress(p);
}

std::vector<StressCase>
stressCases()
{
    std::vector<StressCase> cases;
    for (std::uint64_t seed : {1, 2, 3, 4})
        for (unsigned cores : {2u, 4u})
            for (bool atomic : {false, true})
                cases.push_back({seed, cores, atomic});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CoherenceStress, ::testing::ValuesIn(stressCases()),
    [](const auto &info) { return stressName(info.param); });

TEST(CoherenceStress, RacesAreExercised)
{
    // A write-heavy 4-core mix over very few lines forces S->M
    // upgrades to collide; across these seeds at least one upgrade
    // or in-flight-fill race must fire, proving the transient-state
    // recovery paths are actually covered by the suite.
    std::uint64_t races = 0;
    for (std::uint64_t seed : {11, 12, 13, 14, 15}) {
        sim::Simulator sim("tester");
        mem::MemTesterParams p;
        p.numCores = 4;
        p.seed = seed;
        p.opsPerCore = 1500;
        p.actionLines = 2;
        p.percentChecks = 10;
        p.percentWrites = 60;
        mem::MemTester tester(sim, "mt", p);
        sim::SimResult res = sim.run();
        ASSERT_EQ(res.cause, sim::ExitCause::Finished);
        EXPECT_TRUE(tester.violations().empty());
        races += tester.upgradeRaces() + tester.fillRaces();
    }
    EXPECT_GT(races, 0u)
        << "no upgrade/fill race fired; the stress mix has gone limp";
}

TEST(CoherenceStress, SameSeedIsByteIdentical)
{
    // Determinism gate: two fresh simulators, same seed, must emit
    // byte-identical stats dumps (event order, op mix, race counts).
    auto dump = [] {
        sim::Simulator sim("tester");
        mem::MemTesterParams p;
        p.numCores = 4;
        p.seed = 7;
        p.opsPerCore = 1200;
        mem::MemTester tester(sim, "mt", p);
        sim::SimResult res = sim.run();
        EXPECT_EQ(res.cause, sim::ExitCause::Finished);
        EXPECT_TRUE(tester.violations().empty());
        std::ostringstream os;
        sim.dumpStats(os);
        return os.str();
    };
    std::string a = dump();
    std::string b = dump();
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------
// Litmus tests (satellite: SB, MP, LB, CoRR)
// ---------------------------------------------------------------

/** Workload built from a lambda, for ad-hoc guest programs. */
class InlineWorkload : public GuestWorkload
{
  public:
    using EmitFn = std::function<void(Assembler &, unsigned)>;

    InlineWorkload(std::string name, EmitFn emit)
        : name_(std::move(name)), emit_(std::move(emit))
    {}

    std::string name() const override { return name_; }

    void
    emit(Assembler &as, unsigned num_cpus, SimMode mode) const override
    {
        emit_(as, num_cpus);
    }

  private:
    std::string name_;
    EmitFn emit_;
};

constexpr Addr litX = 0x200000;      // variable x (own line)
constexpr Addr litY = 0x200040;      // variable y (own line)

/** Observation slot @p k of thread @p t (two 8-byte slots each). */
constexpr Addr
obsAddr(unsigned t, unsigned k)
{
    return 0xa00 + t * 16 + k * 8;
}

/** Per-thread interleaving jitter: 1..48 dead cycles from the seed. */
unsigned
delayFor(std::uint64_t seed, unsigned thread)
{
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL +
                      (thread + 1) * 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 29;
    return 1 + (unsigned)(x % 48);
}

void
emitDelay(Assembler &as, unsigned iters, const std::string &label)
{
    as.li(RegT0, (std::int64_t)iters);
    as.label(label);
    as.addi(RegT0, RegT0, -1);
    as.bne(RegT0, RegZero, label);
}

void
emitStoreImm(Assembler &as, Addr addr, std::uint64_t val)
{
    as.li(RegT1, (std::int64_t)addr);
    as.li(RegT2, (std::int64_t)val);
    as.sd(RegT2, RegT1, 0);
}

void
emitLoadTo(Assembler &as, Addr addr, RegIndex dst)
{
    as.li(RegT1, (std::int64_t)addr);
    as.ld(dst, RegT1, 0);
}

/** Observations: thread 0 regs (r00, r01), thread 1 regs (r10, r11);
 *  unused slots read as 0. */
struct Outcome
{
    std::uint64_t r00, r01, r10, r11;

    bool operator<(const Outcome &o) const
    {
        return std::tie(r00, r01, r10, r11) <
               std::tie(o.r00, o.r01, o.r10, o.r11);
    }

    std::string
    str() const
    {
        std::ostringstream os;
        os << "(" << r00 << "," << r01 << "," << r10 << "," << r11
           << ")";
        return os.str();
    }
};

struct LitmusTest
{
    const char *name;
    std::function<void(Assembler &)> thread0;
    std::function<void(Assembler &)> thread1;
    std::function<bool(const Outcome &)> allowed;
};

// Observation registers: s1 holds the thread's first observation,
// raw s3 (x19) the second. Threads store them before halting.
constexpr RegIndex RegObs0 = RegS1;
constexpr RegIndex RegObs1 = 19;

std::vector<LitmusTest>
litmusTable()
{
    return {
        // Store buffering: both threads store, then read the other
        // variable. SC forbids both reads missing both stores.
        {"SB",
         [](Assembler &as) {
             emitStoreImm(as, litX, 1);
             emitLoadTo(as, litY, RegObs0);
         },
         [](Assembler &as) {
             emitStoreImm(as, litY, 1);
             emitLoadTo(as, litX, RegObs0);
         },
         [](const Outcome &o) { return !(o.r00 == 0 && o.r10 == 0); }},

        // Message passing: data then flag; a reader that sees the
        // flag must see the data.
        {"MP",
         [](Assembler &as) {
             emitStoreImm(as, litX, 1); // data
             emitStoreImm(as, litY, 1); // flag
         },
         [](Assembler &as) {
             emitLoadTo(as, litY, RegObs0); // flag
             emitLoadTo(as, litX, RegObs1); // data
         },
         [](const Outcome &o) { return !(o.r10 == 1 && o.r11 == 0); }},

        // Load buffering: loads precede the cross-stores; SC forbids
        // both loads observing the (program-later) stores.
        {"LB",
         [](Assembler &as) {
             emitLoadTo(as, litY, RegObs0);
             emitStoreImm(as, litX, 1);
         },
         [](Assembler &as) {
             emitLoadTo(as, litX, RegObs0);
             emitStoreImm(as, litY, 1);
         },
         [](const Outcome &o) { return !(o.r00 == 1 && o.r10 == 1); }},

        // Coherent read-read: same-location reads must observe the
        // write serialization order (0 -> 1 -> 2), never go backwards.
        {"CoRR",
         [](Assembler &as) {
             emitStoreImm(as, litX, 1);
             emitStoreImm(as, litX, 2);
         },
         [](Assembler &as) {
             emitLoadTo(as, litX, RegObs0);
             emitLoadTo(as, litX, RegObs1);
         },
         [](const Outcome &o) { return o.r11 >= o.r10; }},
    };
}

/** Two-thread litmus program: per-thread seeded delay, the thread
 *  body, then publish observations and halt. */
InlineWorkload
litmusWorkload(const LitmusTest &test, std::uint64_t seed)
{
    return InlineWorkload(
        std::string("litmus-") + test.name,
        [&test, seed](Assembler &as, unsigned) {
            as.label("_start");
            as.li(RegObs0, 0);
            as.li(RegObs1, 0);
            as.bne(RegA0, RegZero, "t1");

            emitDelay(as, delayFor(seed, 0), "d0");
            test.thread0(as);
            as.li(RegT1, (std::int64_t)obsAddr(0, 0));
            as.sd(RegObs0, RegT1, 0);
            as.li(RegT1, (std::int64_t)obsAddr(0, 1));
            as.sd(RegObs1, RegT1, 0);
            as.halt();

            as.label("t1");
            emitDelay(as, delayFor(seed, 1), "d1");
            test.thread1(as);
            as.li(RegT1, (std::int64_t)obsAddr(1, 0));
            as.sd(RegObs0, RegT1, 0);
            as.li(RegT1, (std::int64_t)obsAddr(1, 1));
            as.sd(RegObs1, RegT1, 0);
            as.halt();
        });
}

// gtest lists each case with the raw bytes of its parameter, so the
// struct carries explicit zeroed padding: uninitialised padding bytes
// would give the case a different name from run to run.
struct LitmusCase
{
    std::size_t index; // into litmusTable()
    CpuModel model;
    std::uint8_t pad[sizeof(std::size_t) - sizeof(CpuModel)] = {};
};
static_assert(sizeof(LitmusCase) == 2 * sizeof(std::size_t),
              "LitmusCase must have no implicit padding");

class Litmus : public ::testing::TestWithParam<LitmusCase>
{};

TEST_P(Litmus, OnlyScOutcomes)
{
    LitmusTest test = litmusTable()[GetParam().index];
    CpuModel model = GetParam().model;

    std::map<Outcome, unsigned> histogram;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        InlineWorkload wl = litmusWorkload(test, seed);
        sim::Simulator sim("system");
        SystemConfig cfg;
        cfg.cpuModel = model;
        cfg.numCpus = 2;
        System system(sim, cfg, wl);
        sim::SimResult res = system.run();
        ASSERT_EQ(res.cause, sim::ExitCause::Finished)
            << test.name << " seed " << seed;

        Outcome o{system.physmem().read(obsAddr(0, 0), 8),
                  system.physmem().read(obsAddr(0, 1), 8),
                  system.physmem().read(obsAddr(1, 0), 8),
                  system.physmem().read(obsAddr(1, 1), 8)};
        EXPECT_TRUE(test.allowed(o))
            << test.name << " seed " << seed
            << ": non-SC outcome " << o.str();
        histogram[o] += 1;
    }

    // The seeded delays must actually shuffle the interleaving: a
    // Timing run that always lands on one outcome would mean the
    // litmus harness tests nothing.
    if (model == CpuModel::Timing) {
        EXPECT_GE(histogram.size(), 2u)
            << test.name << ": 64 seeds produced a single outcome";
    }
}

std::vector<LitmusCase>
litmusCases()
{
    std::vector<LitmusCase> cases;
    for (std::size_t i = 0; i < litmusTable().size(); ++i)
        for (CpuModel model : {CpuModel::Atomic, CpuModel::Timing})
            cases.push_back({i, model});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Litmus, ::testing::ValuesIn(litmusCases()),
    [](const auto &info) {
        return std::string(litmusTable()[info.param.index].name) +
               "_" + cpuModelName(info.param.model);
    });

// ---------------------------------------------------------------
// Threaded guest workloads on the coherent machine
// ---------------------------------------------------------------

struct GuestCase
{
    const char *workload;
    double scale;
    CpuModel model;
    unsigned cores;
};

class ThreadedGuest : public ::testing::TestWithParam<GuestCase>
{};

TEST_P(ThreadedGuest, ChecksumMatchesGoldenModel)
{
    GuestCase c = GetParam();
    auto wl = workloads::Registry::instance().create(c.workload,
                                                     c.scale);
    sim::Simulator sim("system");
    SystemConfig cfg;
    cfg.cpuModel = c.model;
    cfg.numCpus = c.cores;
    System system(sim, cfg, *wl);
    sim::SimResult res = system.run();
    ASSERT_EQ(res.cause, sim::ExitCause::Finished)
        << sim.diagnosticDump();

    std::uint64_t expected = wl->expectedResult(c.cores);
    ASSERT_NE(expected, 0u);
    EXPECT_EQ(system.result(), expected);
    EXPECT_GT(system.totalInsts(), 0u);
    // Workers must have committed work too, not just cpu0.
    if (c.cores > 1) {
        for (unsigned i = 0; i < c.cores; ++i)
            EXPECT_GT(system.cpu(i).numInsts(), 0u) << "cpu" << i;
    }
}

std::vector<GuestCase>
guestCases()
{
    std::vector<GuestCase> cases;
    for (CpuModel model : {CpuModel::Atomic, CpuModel::Timing})
        for (unsigned cores : {1u, 2u, 4u}) {
            cases.push_back({"radix_threads", 0.25, model, cores});
            cases.push_back({"lu_threads", 0.75, model, cores});
        }
    // Above scale 32 the keys outgrow the first 1 MiB of the data
    // segment, where the histograms used to sit.
    cases.push_back({"radix_threads", 40, CpuModel::Atomic, 2});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ThreadedGuest, ::testing::ValuesIn(guestCases()),
    [](const auto &info) {
        std::ostringstream os;
        os << info.param.workload << "_"
           << cpuModelName(info.param.model) << "_"
           << info.param.cores << "core";
        // Large-input cases carry their scale, so they stay unique
        // beside the small-scale matrix.
        if (info.param.scale > 1)
            os << "_scale" << info.param.scale;
        return os.str();
    });

TEST(ThreadedGuest, ChecksumIndependentOfCoreCount)
{
    // The kernels are written so the reduction order (and thus the
    // checksum) does not depend on the thread count.
    for (const char *name : {"radix_threads", "lu_threads"}) {
        auto wl = workloads::Registry::instance().create(name, 0.25);
        std::uint64_t e1 = wl->expectedResult(1);
        EXPECT_EQ(e1, wl->expectedResult(2)) << name;
        EXPECT_EQ(e1, wl->expectedResult(4)) << name;
    }
}

TEST(ThreadedGuest, SameSeedStatsAreByteIdentical)
{
    // Guest-level determinism gate: two identical 2-core Timing runs
    // of a threaded workload dump byte-identical stats.
    auto dump = [] {
        auto wl = workloads::Registry::instance().create(
            "radix_threads", 0.25);
        sim::Simulator sim("system");
        SystemConfig cfg;
        cfg.cpuModel = CpuModel::Timing;
        cfg.numCpus = 2;
        System system(sim, cfg, *wl);
        sim::SimResult res = system.run();
        EXPECT_EQ(res.cause, sim::ExitCause::Finished);
        std::ostringstream os;
        sim.dumpStats(os);
        return os.str();
    };
    std::string a = dump();
    std::string b = dump();
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------
// Multi-core regressions for formerly single-core paths
// ---------------------------------------------------------------

TEST(MultiCoreRegression, ExperimentAggregatesAllCores)
{
    core::RunConfig cfg;
    cfg.workload = "radix_threads";
    cfg.workloadScale = 0.25;
    cfg.cpuModel = CpuModel::Timing;
    cfg.guestCpus = 2;
    cfg.platform = host::xeonConfig();
    core::RunResult r = core::runProfiledSimulation(cfg);
    EXPECT_TRUE(r.resultChecked);
    EXPECT_TRUE(r.resultOk);

    // guestInsts must aggregate both cores: a 2-core run of the same
    // kernel commits strictly more than the single-core run (spawn/
    // join/barrier overhead plus the duplicated worker prologues).
    cfg.guestCpus = 1;
    core::RunResult r1 = core::runProfiledSimulation(cfg);
    EXPECT_TRUE(r1.resultOk);
    EXPECT_GT(r.guestInsts, r1.guestInsts);
}

TEST(MultiCoreRegression, FastForwardBoundaryOnTwoCores)
{
    // The fast-forward milestone is armed on cpu0 only (by design —
    // cpu0 runs the main thread); the switch must still happen and
    // the checksum must survive on a 2-core guest.
    core::RunConfig cfg;
    cfg.workload = "radix_threads";
    cfg.workloadScale = 0.25;
    cfg.cpuModel = CpuModel::Timing;
    cfg.guestCpus = 2;
    cfg.fastForwardInsts = 2000;
    cfg.platform = host::xeonConfig();
    core::RunResult r = core::runProfiledSimulation(cfg);
    EXPECT_TRUE(r.resultChecked);
    EXPECT_TRUE(r.resultOk);
}

TEST(MultiCoreRegression, SharedLinesVisibleToXbar)
{
    // While a threaded kernel runs, the snoop filter must see lines
    // held by more than one L1 (the whole point of coherence); spot
    // check mid-run on a 2-core Timing guest.
    auto wl = workloads::Registry::instance().create("radix_threads",
                                                     0.25);
    sim::Simulator sim("system");
    SystemConfig cfg;
    cfg.cpuModel = CpuModel::Timing;
    cfg.numCpus = 2;
    System system(sim, cfg, *wl);

    // Run in slices until a shared line shows up (or completion).
    bool shared_seen = false;
    sim::SimResult res{};
    for (int slice = 0; slice < 2000; ++slice) {
        res = system.run(sim.curTick() + 50'000);
        if (system.xbar().sharedLineCount() > 0)
            shared_seen = true;
        if (res.cause != sim::ExitCause::TickLimit)
            break;
    }
    if (res.cause == sim::ExitCause::TickLimit)
        res = system.run();
    ASSERT_EQ(res.cause, sim::ExitCause::Finished);
    EXPECT_TRUE(shared_seen)
        << "no line was ever held by two caches at a slice boundary";
    EXPECT_EQ(system.result(), wl->expectedResult(2));
}

} // namespace
