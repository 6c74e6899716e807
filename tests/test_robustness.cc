/**
 * @file
 * Supervised-simulation robustness: typed errors, the deadlock/
 * livelock watchdog, deterministic fault injection, and crash-safe
 * checkpointing, driven end-to-end on full machines.
 *
 * The scenarios mirror what a long profiling campaign actually hits:
 * a lost memory response wedging a CPU (deadlock), an event storm at
 * one tick (livelock), runaway runs (budgets), DRAM bit flips,
 * flaky checkpoint I/O, truncated/corrupt checkpoint files, and a
 * killed run recovered from its last auto-checkpoint.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/sim_error.hh"
#include "mem/fault_injector.hh"
#include "os/system.hh"
#include "sim/serialize.hh"
#include "workloads/workload.hh"

using namespace g5p;
using namespace g5p::isa;
using namespace g5p::os;

namespace
{

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

/**
 * A store/load/branch loop over a 2KB window at 0x200000 — enough
 * memory traffic to exercise caches and, on Timing CPUs, the full
 * request/response path the fault injector interposes on.
 */
const InlineWorkload &
loopWorkload()
{
    static InlineWorkload wl("rb-loop", [](Assembler &as, unsigned) {
        as.label("_start");
        as.li(RegS1, 0);
        as.li(RegS0, 0);
        as.li(RegT3, 1200);
        as.li(RegT2, 0x200000);
        as.label("loop");
        as.andi(RegT0, RegS0, 255);
        as.slli(RegT0, RegT0, 3);
        as.add(RegT0, RegT0, RegT2);
        as.sd(RegS0, RegT0, 0);
        as.ld(RegT1, RegT0, 0);
        as.add(RegS1, RegS1, RegT1);
        as.addi(RegS0, RegS0, 1);
        as.blt(RegS0, RegT3, "loop");
        as.li(RegT0, (std::int64_t)GuestWorkload::resultAddr);
        as.sd(RegS1, RegT0, 0);
        as.halt();
    });
    return wl;
}

SystemConfig
makeCfg(CpuModel model, unsigned cores = 1)
{
    SystemConfig cfg;
    cfg.cpuModel = model;
    cfg.mode = SimMode::SE;
    cfg.numCpus = cores;
    return cfg;
}

/** Everything we compare between reference and recovered runs. */
struct Artifacts
{
    std::string stats;
    std::uint64_t result = 0;
    std::uint64_t insts = 0;
    std::uint64_t memDigest = 0;
    Tick finalTick = 0;
};

/** One machine, optionally with a fault injector attached. */
struct Machine
{
    sim::Simulator sim{"system"};
    System system;
    std::unique_ptr<mem::FaultInjector> injector;

    explicit Machine(CpuModel model,
                     const mem::FaultInjectorParams *faults = nullptr,
                     unsigned cores = 1)
        : system(sim, makeCfg(model, cores), loopWorkload())
    {
        if (faults) {
            injector = std::make_unique<mem::FaultInjector>(
                sim, "faultinjector", *faults);
            injector->setMemory(&system.physmem());
        }
    }

    Artifacts
    finish(Tick tick_limit = maxTick)
    {
        auto res = system.run(tick_limit);
        EXPECT_EQ(res.cause, sim::ExitCause::Finished);
        Artifacts a;
        std::ostringstream stats;
        sim.dumpStats(stats);
        a.stats = stats.str();
        a.result = system.result();
        a.insts = system.totalInsts();
        a.memDigest = system.physmem().contentDigest();
        a.finalTick = res.tick;
        return a;
    }
};

/** The uninterrupted reference for @p model, computed once. */
const Artifacts &
reference(CpuModel model)
{
    static Artifacts atomicRef, timingRef;
    Artifacts &slot =
        model == CpuModel::Atomic ? atomicRef : timingRef;
    if (slot.finalTick == 0) {
        Machine m(model);
        slot = m.finish();
    }
    return slot;
}

std::string
tmpPath(const std::string &tag)
{
    return ::testing::TempDir() + "/g5p_rb_" + tag + ".ckpt";
}

// ---------------------------------------------------------------------
// Watchdog: livelock, budgets, deadlock.
// ---------------------------------------------------------------------

TEST(Watchdog, LivelockDetected)
{
    sim::Simulator simr("system");
    auto &q = simr.eventq();
    sim::EventFunctionWrapper ev(
        [&] { q.schedule(ev, q.curTick()); }, "spin");
    q.schedule(ev, 0);

    sim::RunOptions run;
    run.supervise = true;
    run.watchdog.livelockEvents = 64;
    run.watchdog.flightRecorderDepth = 16;
    simr.configure(run);
    auto res = simr.run();

    EXPECT_EQ(res.cause, sim::ExitCause::Livelock);
    EXPECT_TRUE(sim::isSupervisedExit(res.cause));
    EXPECT_FALSE(res.diagnostic.empty());
    EXPECT_NE(res.diagnostic.find("pending events"),
              std::string::npos);
    EXPECT_NE(res.diagnostic.find("'spin'"), std::string::npos);
    EXPECT_EQ(simr.flightRecords().size(), 16u);

    if (ev.scheduled())
        q.deschedule(ev);
}

TEST(Watchdog, EventBudgetExhausted)
{
    sim::Simulator simr("system");
    auto &q = simr.eventq();
    sim::EventFunctionWrapper ev(
        [&] { q.schedule(ev, q.curTick() + 1); }, "ticker");
    q.schedule(ev, 0);

    sim::RunOptions run;
    run.supervise = true;
    run.watchdog.maxEvents = 500;
    simr.configure(run);
    auto res = simr.run();

    EXPECT_EQ(res.cause, sim::ExitCause::WatchdogTimeout);
    EXPECT_NE(res.message.find("event budget"), std::string::npos);
    EXPECT_FALSE(res.diagnostic.empty());

    if (ev.scheduled())
        q.deschedule(ev);
}

TEST(Watchdog, WallClockBudgetExhausted)
{
    sim::Simulator simr("system");
    auto &q = simr.eventq();
    sim::EventFunctionWrapper ev(
        [&] { q.schedule(ev, q.curTick() + 1); }, "ticker");
    q.schedule(ev, 0);

    sim::RunOptions run;
    run.supervise = true;
    run.watchdog.maxWallSeconds = 0.02;
    simr.configure(run);
    auto res = simr.run();

    EXPECT_EQ(res.cause, sim::ExitCause::WatchdogTimeout);
    EXPECT_NE(res.message.find("wall-clock"), std::string::npos);

    if (ev.scheduled())
        q.deschedule(ev);
}

TEST(Watchdog, DeadlockOnDroppedResponse)
{
    // Drop exactly one timing response: the requesting CPU waits
    // forever, the event queue drains, and the activity probe turns
    // the empty queue into a Deadlock report instead of the silent
    // EventQueueEmpty a finished run would produce.
    mem::FaultInjectorParams fp;
    fp.seed = 7;
    fp.dropChance = 1.0;
    fp.respFaultMax = 1;

    Machine m(CpuModel::Timing, &fp);
    auto res = m.system.run();

    EXPECT_EQ(res.cause, sim::ExitCause::Deadlock);
    EXPECT_EQ(m.injector->dropsInjected(), 1u);
    EXPECT_FALSE(res.diagnostic.empty());
    EXPECT_NE(res.diagnostic.find("machine state"), std::string::npos);
    EXPECT_NE(res.diagnostic.find("[running]"), std::string::npos);
}

TEST(Watchdog, CleanRunUnaffected)
{
    // A watchdog with generous limits must not perturb a healthy run.
    Machine m(CpuModel::Timing);
    sim::RunOptions run;
    run.supervise = true;
    run.watchdog.livelockEvents = 1u << 20;
    run.watchdog.maxEvents = 1ull << 40;
    m.sim.configure(run);
    Artifacts a = m.finish();
    EXPECT_EQ(a.result, reference(CpuModel::Timing).result);
    EXPECT_EQ(a.finalTick, reference(CpuModel::Timing).finalTick);
}

// ---------------------------------------------------------------------
// Fault injection: bit flips, delayed responses, flaky I/O.
// ---------------------------------------------------------------------

TEST(FaultInjection, BitFlipCorruptsMemoryDigest)
{
    const Artifacts &ref = reference(CpuModel::Atomic);

    // Flip one bit in a byte the workload's page holds but never
    // rewrites (the loop writes offsets 0..2047; 0x200800 is beyond
    // them in the same touched page), so the corruption is still
    // visible in the final image no matter when it lands.
    mem::FaultInjectorParams fp;
    fp.seed = 11;
    fp.bitFlips = 1;
    fp.flipBase = 0x200800;
    fp.flipBytes = 8;
    fp.firstFlipAt = ref.finalTick / 2;

    Machine m(CpuModel::Atomic, &fp);
    Artifacts a = m.finish();

    EXPECT_EQ(m.injector->flipsInjected(), 1u);
    EXPECT_NE(a.memDigest, ref.memDigest);
    // Architectural execution is untouched; only memory content
    // differs.
    EXPECT_EQ(a.insts, ref.insts);
}

TEST(FaultInjection, DelayedResponsesKeepResultCorrect)
{
    // Delaying responses must stretch time, never corrupt data: the
    // guest result is timing-independent.
    mem::FaultInjectorParams fp;
    fp.seed = 13;
    fp.delayChance = 1.0;
    fp.delayTicks = 500;
    fp.respFaultMax = 4;

    Machine m(CpuModel::Timing, &fp);
    Artifacts a = m.finish();

    EXPECT_EQ(m.injector->delaysInjected(), 4u);
    EXPECT_EQ(a.result, reference(CpuModel::Timing).result);
    EXPECT_EQ(a.insts, reference(CpuModel::Timing).insts);
    EXPECT_GE(a.finalTick, reference(CpuModel::Timing).finalTick);
}

TEST(FaultInjection, ResponseFaultsArePerCoreOnTwoCores)
{
    // PR 8 determinism contract: response faults draw from a
    // per-requesting-core stream and respFaultMax bounds faults per
    // core — core 0's fault pattern cannot depend on core 1's
    // traffic volume.
    mem::FaultInjectorParams fp;
    fp.seed = 21;
    fp.delayChance = 1.0;
    fp.delayTicks = 400;
    fp.respFaultMax = 2;

    Machine m(CpuModel::Timing, &fp, 2);
    auto res = m.system.run();
    ASSERT_EQ(res.cause, sim::ExitCause::Finished);

    // Each core absorbed its own cap's worth of delays.
    EXPECT_EQ(m.injector->delaysInjectedOn(0), 2u);
    EXPECT_EQ(m.injector->delaysInjectedOn(1), 2u);
    EXPECT_GE(m.injector->delaysInjected(), 4u);
    EXPECT_EQ(m.injector->dropsInjected(), 0u);

    // Delays stretch time; they never corrupt data.
    Machine clean(CpuModel::Timing, nullptr, 2);
    auto clean_res = clean.system.run();
    ASSERT_EQ(clean_res.cause, sim::ExitCause::Finished);
    EXPECT_EQ(m.system.result(), clean.system.result());
    EXPECT_EQ(m.system.totalInsts(), clean.system.totalInsts());
    EXPECT_GE(res.tick, clean_res.tick);
}

TEST(FaultInjection, FlipScheduleIndependentOfCoreCountAndModel)
{
    // The bit-flip schedule draws from a dedicated stream: the same
    // params produce the same (address, bit) sequence no matter how
    // many cores run or which CPU model drives the traffic.
    mem::FaultInjectorParams fp;
    fp.seed = 31;
    fp.bitFlips = 3;
    fp.flipBase = 0x200800; // outside the loop's data window
    fp.flipBytes = 64;
    fp.firstFlipAt = 0;
    fp.flipPeriod = 500;

    Machine one(CpuModel::Atomic, &fp, 1);
    ASSERT_EQ(one.system.run().cause, sim::ExitCause::Finished);
    Machine two(CpuModel::Atomic, &fp, 2);
    ASSERT_EQ(two.system.run().cause, sim::ExitCause::Finished);
    Machine timing(CpuModel::Timing, &fp, 1);
    ASSERT_EQ(timing.system.run().cause, sim::ExitCause::Finished);

    ASSERT_EQ(one.injector->flipLog().size(), 3u);
    EXPECT_EQ(one.injector->flipLog(), two.injector->flipLog());
    EXPECT_EQ(one.injector->flipLog(), timing.injector->flipLog());
}

TEST(FaultInjection, CheckpointWriteRetriesThroughTransientFailure)
{
    sim::Simulator simr("system");
    mem::FaultInjectorParams fp;
    fp.failWrites = 2;
    mem::FaultInjector inj(simr, "faultinjector", fp);

    sim::CheckpointOut cp;
    cp.param("answer", std::string("42"));
    std::string path = tmpPath("retry");
    cp.writeFile(path); // default 3 attempts: 2 fail, 3rd lands

    EXPECT_EQ(inj.ioFaultsInjected(), 2u);
    auto in = sim::CheckpointIn::readFile(path);
    std::string answer;
    in.param("answer", answer);
    EXPECT_EQ(answer, "42");
    std::remove(path.c_str());
}

TEST(FaultInjection, CheckpointWritePermanentFailureThrows)
{
    sim::Simulator simr("system");
    mem::FaultInjectorParams fp;
    fp.failWrites = 10;
    mem::FaultInjector inj(simr, "faultinjector", fp);

    sim::CheckpointOut cp;
    cp.param("answer", std::string("42"));
    std::string path = tmpPath("permfail");
    EXPECT_THROW(cp.writeFile(path), CheckpointError);
    // Atomic-write contract: a failed write leaves neither the final
    // file nor a temp file behind.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(FaultInjection, CheckpointReadFailureThrows)
{
    std::string path = tmpPath("readfail");
    {
        sim::CheckpointOut cp;
        cp.param("answer", std::string("42"));
        cp.writeFile(path);
    }
    sim::Simulator simr("system");
    mem::FaultInjectorParams fp;
    fp.failReads = 1;
    mem::FaultInjector inj(simr, "faultinjector", fp);

    EXPECT_THROW(sim::CheckpointIn::readFile(path), CheckpointError);
    // The next attempt (fault budget spent) succeeds.
    auto in = sim::CheckpointIn::readFile(path);
    std::string answer;
    in.param("answer", answer);
    EXPECT_EQ(answer, "42");
    std::remove(path.c_str());
}

TEST(FaultInjection, AutoCheckpointSurvivesIoFailure)
{
    // All three write attempts of the first auto-checkpoint fail; the
    // run must shrug it off (warn + continue) and still finish with
    // the correct result.
    const Artifacts &ref = reference(CpuModel::Atomic);

    mem::FaultInjectorParams fp;
    fp.failWrites = 3;

    Machine m(CpuModel::Atomic, &fp);
    std::string prefix = ::testing::TempDir() + "/g5p_rb_autofail";
    sim::RunOptions run;
    run.autoCheckpointPeriod = ref.finalTick / 2;
    run.autoCheckpointPrefix = prefix;
    m.sim.configure(run);
    Artifacts a = m.finish();

    EXPECT_EQ(a.result, ref.result);
    EXPECT_EQ(m.injector->ioFaultsInjected(), 3u);

    namespace fs = std::filesystem;
    for (const auto &ent :
         fs::directory_iterator(::testing::TempDir())) {
        std::string name = ent.path().filename().string();
        if (name.rfind("g5p_rb_autofail-", 0) == 0)
            fs::remove(ent.path());
    }
}

TEST(FaultInjection, CheckpointRetryOptionsAreHonored)
{
    // RunOptions::checkpointRetry tunes how hard Simulator::
    // checkpoint fights transient I/O failure (the sweep service
    // raises it for long campaigns).
    const Artifacts &ref = reference(CpuModel::Atomic);

    // Loosened budget: five attempts ride through four failures.
    {
        mem::FaultInjectorParams fp;
        fp.failWrites = 4;
        Machine m(CpuModel::Atomic, &fp);
        sim::RunOptions run;
        run.checkpointRetry.maxAttempts = 5;
        run.checkpointRetry.backoffBaseMs = 0.01;
        m.sim.configure(run);
        auto part = m.system.run(ref.finalTick / 2);
        ASSERT_EQ(part.cause, sim::ExitCause::TickLimit);

        std::string path = tmpPath("retrycfg");
        EXPECT_TRUE(m.sim.checkpoint(path));
        EXPECT_EQ(m.injector->ioFaultsInjected(), 4u);
        EXPECT_NO_THROW(sim::CheckpointIn::readFile(path));
        std::remove(path.c_str());
    }

    // Tightened budget: a single attempt fails fast (callers that
    // would rather requeue the job than block on backoff).
    {
        mem::FaultInjectorParams fp;
        fp.failWrites = 1;
        Machine m(CpuModel::Atomic, &fp);
        sim::RunOptions run;
        run.checkpointRetry.maxAttempts = 1;
        m.sim.configure(run);
        auto part = m.system.run(ref.finalTick / 2);
        ASSERT_EQ(part.cause, sim::ExitCause::TickLimit);

        std::string path = tmpPath("retrycfg_tight");
        EXPECT_THROW(m.sim.checkpoint(path), CheckpointError);
        EXPECT_FALSE(std::filesystem::exists(path));
        EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    }
}

// ---------------------------------------------------------------------
// Crash-safe checkpointing: truncation, corruption, kill-and-recover.
// ---------------------------------------------------------------------

/** Run to @p stop_at, checkpoint, return the path. */
std::string
writeMidRunCheckpoint(const std::string &tag)
{
    const Artifacts &ref = reference(CpuModel::Atomic);
    std::string path = tmpPath(tag);
    Machine m(CpuModel::Atomic);
    auto part = m.system.run(ref.finalTick / 2);
    EXPECT_EQ(part.cause, sim::ExitCause::TickLimit);
    EXPECT_TRUE(m.sim.checkpoint(path));
    return path;
}

TEST(CrashSafety, TruncatedCheckpointRejected)
{
    std::string path = writeMidRunCheckpoint("trunc");

    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        text = os.str();
    }
    ASSERT_GT(text.size(), 100u);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() / 2);
    }

    Machine m(CpuModel::Atomic);
    try {
        m.sim.restore(path);
        FAIL() << "restore of a truncated checkpoint succeeded";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(CrashSafety, CorruptedCheckpointRejected)
{
    std::string path = writeMidRunCheckpoint("corrupt");

    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        text = os.str();
    }
    // Flip one digit in the middle of the body; the checksum footer
    // no longer matches.
    std::size_t pos = text.find("=1");
    ASSERT_NE(pos, std::string::npos);
    text[pos + 1] = '2';
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text;
    }

    Machine m(CpuModel::Atomic);
    try {
        m.sim.restore(path);
        FAIL() << "restore of a corrupt checkpoint succeeded";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Checkpoint);
        EXPECT_NE(std::string(e.what()).find("corrupt"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(CrashSafety, KillAndRecoverBitIdentical)
{
    // The flagship scenario: a run with periodic auto-checkpoints is
    // abandoned mid-flight (process killed); a fresh machine restores
    // the last auto-checkpoint and must finish bit-identical to an
    // uninterrupted run.
    const Artifacts &ref = reference(CpuModel::Atomic);
    std::string prefix = ::testing::TempDir() + "/g5p_rb_kill";

    namespace fs = std::filesystem;
    auto sweep = [&] {
        std::vector<std::string> found;
        for (const auto &ent :
             fs::directory_iterator(::testing::TempDir())) {
            std::string name = ent.path().filename().string();
            if (name.rfind("g5p_rb_kill-", 0) == 0)
                found.push_back(ent.path().string());
        }
        return found;
    };
    for (const auto &p : sweep())
        fs::remove(p);

    {
        Machine killed(CpuModel::Atomic);
        sim::RunOptions run;
        run.autoCheckpointPeriod = ref.finalTick / 4;
        run.autoCheckpointPrefix = prefix;
        killed.sim.configure(run);
        auto part = killed.system.run(ref.finalTick * 6 / 10);
        ASSERT_EQ(part.cause, sim::ExitCause::TickLimit);
        // The machine is destroyed here with work outstanding — the
        // in-process equivalent of kill -9.
    }

    auto written = sweep();
    ASSERT_FALSE(written.empty()) << "no auto-checkpoint was written";
    auto tick_of = [&](const std::string &p) {
        std::string n = fs::path(p).filename().string();
        std::size_t dash = n.rfind('-');
        return std::stoull(n.substr(dash + 1,
                                    n.size() - dash - 6));
    };
    std::string latest = *std::max_element(
        written.begin(), written.end(),
        [&](const std::string &x, const std::string &y) {
            return tick_of(x) < tick_of(y);
        });

    Machine recovered(CpuModel::Atomic);
    recovered.sim.restore(latest);
    Artifacts a = recovered.finish();

    EXPECT_EQ(a.result, ref.result);
    EXPECT_EQ(a.insts, ref.insts);
    EXPECT_EQ(a.finalTick, ref.finalTick);
    EXPECT_EQ(a.memDigest, ref.memDigest);
    EXPECT_EQ(a.stats, ref.stats);

    for (const auto &p : sweep())
        fs::remove(p);
}

// ---------------------------------------------------------------------
// Typed-error contract: the remaining conversion sites.
// ---------------------------------------------------------------------

TEST(TypedErrors, QuiescenceBudgetExhaustionThrows)
{
    sim::Simulator simr("system");
    auto &q = simr.eventq();
    // A perpetual chain of transient events: the queue is never
    // quiescent, so the seek must give up with a typed error rather
    // than spin forever.
    std::function<void()> chain = [&] {
        auto *ev = new sim::EventFunctionWrapper(chain, "chain");
        ev->setAutoDelete(true);
        q.schedule(*ev, q.curTick() + 1);
    };
    chain();

    try {
        simr.advanceToQuiescence(1000);
        FAIL() << "expected InvariantError";
    } catch (const InvariantError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Invariant);
        EXPECT_NE(std::string(e.what()).find("quiescent"),
                  std::string::npos);
        EXPECT_GT(e.line(), 0);
    }
}

TEST(TypedErrors, RestoreNonexistentPathThrows)
{
    sim::Simulator simr("system");
    EXPECT_THROW(
        simr.restore(::testing::TempDir() + "/g5p_rb_missing.ckpt"),
        CheckpointError);
}

TEST(TypedErrors, RegisterSerialCollisionThrows)
{
    sim::Simulator simr("system");
    auto &q = simr.eventq();
    sim::EventFunctionWrapper a([] {}, "a");
    sim::EventFunctionWrapper b([] {}, "b");
    q.registerSerial("dup.tag", &a);
    EXPECT_THROW(q.registerSerial("dup.tag", &b), InvariantError);
    q.unregisterSerial("dup.tag");
}

TEST(TypedErrors, UnknownWorkloadThrows)
{
    try {
        workloads::Registry::instance().create("no_such_workload", 1);
        FAIL() << "expected WorkloadError";
    } catch (const WorkloadError &e) {
        EXPECT_NE(std::string(e.what()).find("no_such_workload"),
                  std::string::npos);
        // The message lists the known workloads to help the user.
        EXPECT_NE(std::string(e.what()).find("sieve"),
                  std::string::npos);
    }
}

TEST(TypedErrors, ErrorCarriesContext)
{
    sim::Simulator simr("system");
    try {
        simr.restore("/nonexistent/g5p.ckpt");
        FAIL() << "expected CheckpointError";
    } catch (const CheckpointError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Checkpoint);
        EXPECT_EQ(e.object(), "checkpoint");
        EXPECT_NE(e.file(), nullptr);
        EXPECT_GT(e.line(), 0);
        // what() is the decorated form: kind, object, message, site.
        std::string what = e.what();
        EXPECT_NE(what.find("CheckpointError"), std::string::npos);
        EXPECT_NE(what.find("serialize.cc"), std::string::npos);
    }
}

TEST(TypedErrors, CheckpointReturnsStatus)
{
    const Artifacts &ref = reference(CpuModel::Atomic);
    std::string path = tmpPath("status");

    Machine m(CpuModel::Atomic);
    auto part = m.system.run(ref.finalTick / 2);
    ASSERT_EQ(part.cause, sim::ExitCause::TickLimit);
    EXPECT_TRUE(m.sim.checkpoint(path));
    EXPECT_TRUE(std::filesystem::exists(path));
    std::remove(path.c_str());
}

} // namespace
