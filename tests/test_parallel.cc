/**
 * @file
 * Parallel experiment harness: pooled sweeps must be byte-identical
 * to serial execution. The gate test (ParallelDeterminismGate) is the
 * acceptance check for the whole isolation refactor — every RunResult
 * field, doubles compared bit-for-bit, across all four CPU models.
 *
 * Beyond the executor itself, the machine-level tests run whole
 * simulators on raw threads (stats text + memory digest comparison,
 * checkpoint/restore mid-job) to prove the retired process-globals —
 * recorder, DataSpace, event pool, checkpoint I/O hook — really are
 * per-thread now.
 *
 * The PipelinedSink suite covers the stage that runs each profiled
 * run's host model on a second thread: bit-identity with the serial
 * synthesizer -> host model chain, order, the drain/exception
 * contract, and teardown with batches still queued.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/sim_error.hh"
#include "core/parallel.hh"
#include "isa/decoder.hh"
#include "os/system.hh"
#include "trace/code_layout.hh"
#include "trace/pipelined_sink.hh"
#include "trace/recorder.hh"
#include "workloads/workload.hh"

using namespace g5p;
using namespace g5p::core;

namespace
{

// ---------------------------------------------------------------
// Bitwise result signatures
// ---------------------------------------------------------------

void
putBits(std::ostringstream &os, double v)
{
    os << std::bit_cast<std::uint64_t>(v) << ',';
}

/**
 * Serialize every RunResult field, doubles as raw bit patterns, so
 * two results compare equal only if they are byte-identical. EXPECT
 * on the strings gives a readable first-divergence diff.
 */
std::string
resultSignature(const RunResult &r)
{
    std::ostringstream os;
    os << r.workload << '|' << r.platform << '|'
       << os::cpuModelName(r.cpuModel) << '|' << (int)r.mode << '|';

    const host::HostCounters &c = r.counters;
    os << c.insts << ',' << c.uops << ',' << c.loads << ','
       << c.stores << ',' << c.branches << ',';
    putBits(os, c.baseCycles);
    putBits(os, c.feLatIcacheCycles);
    putBits(os, c.feLatItlbCycles);
    putBits(os, c.feLatMispredictCycles);
    putBits(os, c.feLatUnknownCycles);
    putBits(os, c.feLatClearCycles);
    putBits(os, c.feBwMiteCycles);
    putBits(os, c.feBwDsbCycles);
    putBits(os, c.badSpecCycles);
    putBits(os, c.beMemCycles);
    putBits(os, c.beCoreCycles);
    os << c.icacheAccesses << ',' << c.icacheMisses << ','
       << c.dcacheAccesses << ',' << c.dcacheMisses << ','
       << c.itlbAccesses << ',' << c.itlbMisses << ','
       << c.dtlbAccesses << ',' << c.dtlbMisses << ','
       << c.l2Misses << ',' << c.llcMisses << ','
       << c.mispredicts << ',' << c.unknownBranches << ','
       << c.uopsFromDsb << ',' << c.uopsFromMite << ','
       << c.dramBytes << ',' << c.llcOccupancyBytes << '|';

    const host::TopdownBreakdown &t = r.topdown;
    putBits(os, t.retiring);
    putBits(os, t.badSpeculation);
    putBits(os, t.frontendLatency);
    putBits(os, t.frontendBandwidth);
    putBits(os, t.backendBound);
    putBits(os, t.feIcache);
    putBits(os, t.feItlb);
    putBits(os, t.feMispredictResteers);
    putBits(os, t.feUnknownBranches);
    putBits(os, t.feClearResteers);
    putBits(os, t.feMite);
    putBits(os, t.feDsb);
    putBits(os, t.beMemory);
    putBits(os, t.beCore);
    os << '|';

    putBits(os, r.hostSeconds);
    putBits(os, r.ipc);
    os << r.hostInsts << ',' << r.codeBytes << ',' << r.guestInsts
       << ',' << r.simTicks << ',' << r.guestResult << ','
       << r.resultChecked << ',' << r.resultOk << ','
       << r.distinctFunctions << '|';

    for (const core::HostProfileRow &row : r.functionProfile.rows) {
        os << row.name << ':';
        putBits(os, row.weight);
        putBits(os, row.share);
    }
    return os.str();
}

std::vector<std::string>
signatures(const std::vector<RunResult> &results)
{
    std::vector<std::string> sigs;
    sigs.reserve(results.size());
    for (const RunResult &r : results)
        sigs.push_back(resultSignature(r));
    return sigs;
}

// ---------------------------------------------------------------
// The reference sweep: every CPU model on two platforms
// ---------------------------------------------------------------

std::vector<RunConfig>
sweepConfigs()
{
    std::vector<RunConfig> configs;
    for (os::CpuModel model : os::allCpuModels) {
        for (int p = 0; p < 2; ++p) {
            RunConfig cfg;
            cfg.workload = "water_nsquared";
            cfg.workloadScale = 0.25;
            cfg.cpuModel = model;
            cfg.platform =
                p ? host::m1ProConfig() : host::xeonConfig();
            cfg.seed = 7 + (std::uint64_t)p;
            configs.push_back(cfg);
        }
    }
    return configs;
}

/** Serial reference, computed once and shared by every test here. */
const std::vector<std::string> &
serialSweepSignatures()
{
    static const std::vector<std::string> sigs =
        signatures(runExperiments(sweepConfigs(), 1));
    return sigs;
}

} // namespace

// ---------------------------------------------------------------
// The acceptance gate: serial == 4-thread, bit for bit
// ---------------------------------------------------------------

TEST(ParallelDeterminismGate, SerialEqualsFourThreads)
{
    std::vector<RunConfig> configs = sweepConfigs();
    const std::vector<std::string> &serial = serialSweepSignatures();

    EXPECT_EQ(ParallelExecutor(4).jobs(), 4u);
    std::vector<std::string> pooled =
        signatures(runExperiments(configs, 4));

    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], pooled[i])
            << "config " << i << " ("
            << os::cpuModelName(configs[i].cpuModel) << ")";
}

TEST(Parallel, DeterministicUnderShuffledSubmission)
{
    const std::vector<RunConfig> configs = sweepConfigs();
    const std::vector<std::string> &serial = serialSweepSignatures();

    // Whatever order jobs are submitted (and therefore started) in,
    // each config's result must equal its serial reference.
    std::mt19937 rng(1234);
    for (int round = 0; round < 2; ++round) {
        std::vector<std::size_t> perm(configs.size());
        std::iota(perm.begin(), perm.end(), 0u);
        std::shuffle(perm.begin(), perm.end(), rng);

        std::vector<RunConfig> shuffled;
        for (std::size_t idx : perm)
            shuffled.push_back(configs[idx]);

        std::vector<std::string> pooled =
            signatures(runExperiments(shuffled, 4));
        ASSERT_EQ(pooled.size(), perm.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            EXPECT_EQ(serial[perm[i]], pooled[i])
                << "round " << round << " slot " << i;
    }
}

TEST(Parallel, FirstFailureByIndexAfterDrain)
{
    // One bad job must not stop the others; the first failure in
    // submission order is rethrown once the pool has drained.
    std::vector<RunConfig> configs = sweepConfigs();
    configs.resize(4);
    configs[1].workload = "no_such_workload";
    EXPECT_THROW(runExperiments(configs, 4), WorkloadError);
}

TEST(Parallel, ForEachRunsEachIndexOnceAndRethrowsLowestFailure)
{
    // Two failing jobs, and the higher index fails first: the low
    // one waits until the high one has thrown. forEach must still
    // run every index exactly once and rethrow the lowest index's
    // exception.
    constexpr std::size_t count = 64, low = 5, high = 58;
    std::vector<std::atomic<int>> runs(count);
    std::atomic<bool> high_threw{false};
    bool low_saw_high = false;
    auto job = [&](std::size_t i) {
        runs[i].fetch_add(1);
        if (i == high) {
            high_threw.store(true);
            throw std::runtime_error("high");
        }
        if (i == low) {
            auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(60);
            while (!high_threw.load() &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            low_saw_high = high_threw.load();
            throw std::runtime_error("low");
        }
    };

    std::string rethrown;
    try {
        ParallelExecutor(4).forEach(count, job);
    } catch (const std::runtime_error &e) {
        rethrown = e.what();
    }
    EXPECT_EQ(rethrown, "low");
    EXPECT_TRUE(low_saw_high);
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(runs[i].load(), 1) << "index " << i;
}

TEST(Parallel, ExecutorDefaultsAndSerialFallback)
{
    EXPECT_GE(ParallelExecutor::hardwareJobs(), 1u);
    EXPECT_GE(ParallelExecutor().jobs(), 1u);

    // jobs == 0 means one worker per hardware thread; a single
    // config runs inline on the caller whatever the width, and empty
    // input is a no-op.
    EXPECT_TRUE(runExperiments({}, 4).empty());
    std::vector<RunConfig> one{sweepConfigs()[0]};
    std::vector<std::string> serial =
        signatures(runExperiments(one, 0));
    ASSERT_EQ(serial.size(), 1u);
    EXPECT_EQ(serial[0], serialSweepSignatures()[0]);
}

// ---------------------------------------------------------------
// Machine-level isolation: whole simulators on raw threads
// ---------------------------------------------------------------

namespace
{

using namespace g5p::isa;
using namespace g5p::os;

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
 * A store/load/branch loop with enough traffic to exercise caches,
 * TLBs, the decode cache and (on Minor/O3) the branch predictor —
 * the structures whose pooled state used to be process-global.
 */
const InlineWorkload &
poolWorkload()
{
    static InlineWorkload wl("pool-loop", [](Assembler &as, unsigned) {
        as.label("_start");
        as.li(RegS1, 0);
        as.li(RegS0, 0);
        as.li(RegT3, 1200);
        as.li(RegT2, 0x200000);
        as.label("loop");
        as.andi(RegT0, RegS0, 127);
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

/** Everything we compare between a serial and a threaded machine. */
struct Artifacts
{
    std::string stats;
    std::uint64_t result = 0;
    std::uint64_t insts = 0;
    std::uint64_t memDigest = 0;
    Tick finalTick = 0;
};

/** One simulator+system pair owned entirely by one thread. */
struct Machine
{
    sim::Simulator sim{"system"};
    System system;

    explicit Machine(CpuModel model)
        : system(sim,
                 [model] {
                     SystemConfig cfg;
                     cfg.cpuModel = model;
                     return cfg;
                 }(),
                 poolWorkload())
    {}

    Artifacts
    finish(Tick tick_limit = maxTick)
    {
        auto res = system.run(tick_limit);
        EXPECT_EQ(res.cause, sim::ExitCause::Finished);
        Artifacts a;
        // Stats first: System::result() reads guest memory through
        // the instrumented path and would bump physmem counters.
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

void
expectSameArtifacts(const Artifacts &a, const Artifacts &b)
{
    EXPECT_EQ(a.result, b.result);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.finalTick, b.finalTick);
    EXPECT_EQ(a.memDigest, b.memDigest);
    EXPECT_EQ(a.stats, b.stats);
}

/** Serial reference artifacts, one machine per CPU model. */
std::vector<Artifacts>
serialArtifacts()
{
    std::vector<Artifacts> ref;
    for (CpuModel model : allCpuModels)
        ref.push_back(Machine(model).finish());
    return ref;
}

} // namespace

TEST(Parallel, ConcurrentMachinesMatchSerialStatsAndMemory)
{
    // Reference: each model run serially on the main thread.
    std::vector<Artifacts> ref = serialArtifacts();

    // All four models at once, one whole machine per thread. The
    // stats text and the memory digest — the strictest observables we
    // have — must match the serial run exactly.
    std::vector<Artifacts> out(ref.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < ref.size(); ++i)
        threads.emplace_back([i, &out] {
            out[i] = Machine(allCpuModels[i]).finish();
        });
    for (auto &t : threads)
        t.join();

    for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE(cpuModelName(allCpuModels[i]));
        expectSameArtifacts(ref[i], out[i]);
    }
}

TEST(Parallel, CheckpointRestoreInsidePooledJob)
{
    // PR-2's bit-identical checkpoint/restore guarantee must survive
    // pooling: four jobs checkpoint and restore concurrently (the
    // checkpoint I/O hook used to be a process-global).
    std::vector<Artifacts> ref = serialArtifacts();

    std::vector<Artifacts> resumed(ref.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < ref.size(); ++i)
        threads.emplace_back([i, &ref, &resumed] {
            CpuModel model = allCpuModels[i];
            std::string path = ::testing::TempDir() +
                               "/g5p_pool_" + cpuModelName(model) +
                               ".ckpt";
            {
                Machine mb(model);
                auto part = mb.system.run(ref[i].finalTick / 2);
                ASSERT_EQ(part.cause, sim::ExitCause::TickLimit);
                mb.sim.checkpoint(path);
            }
            Machine mc(model);
            mc.sim.restore(path);
            resumed[i] = mc.finish();
            std::remove(path.c_str());
        });
    for (auto &t : threads)
        t.join();

    for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE(cpuModelName(allCpuModels[i]));
        expectSameArtifacts(ref[i], resumed[i]);
    }
}

// ---------------------------------------------------------------
// Per-job wall cap: one hung config cannot stall the sweep
// ---------------------------------------------------------------

namespace
{

/** Register a branch-to-self guest that never halts. */
void
registerHangWorkload()
{
    static bool once = [] {
        workloads::Registry::instance().add(
            "par-hang", [](double) {
                return std::make_unique<InlineWorkload>(
                    "par-hang", [](Assembler &as, unsigned) {
                        as.label("_start");
                        as.label("spin");
                        as.j("spin");
                    });
            });
        return true;
    }();
    (void)once;
}

/** Register a short counting loop that finishes in milliseconds. */
void
registerTinyWorkload()
{
    static bool once = [] {
        workloads::Registry::instance().add(
            "par-tiny", [](double) {
                return std::make_unique<InlineWorkload>(
                    "par-tiny", [](Assembler &as, unsigned) {
                        as.label("_start");
                        as.li(RegS0, 0);
                        as.li(RegT3, 200);
                        as.label("loop");
                        as.addi(RegS0, RegS0, 1);
                        as.blt(RegS0, RegT3, "loop");
                        as.halt();
                    });
            });
        return true;
    }();
    (void)once;
}

} // namespace

TEST(Parallel, WallCapSurfacesWatchdogTimeoutInPooledResults)
{
    registerHangWorkload();
    registerTinyWorkload();

    // A hung config and a healthy one in the same sweep: under a
    // per-job wall cap the hung job comes back as a normal result
    // with exitCause == WatchdogTimeout and the sweep completes.
    RunConfig hung;
    hung.workload = "par-hang";
    hung.platform = host::xeonConfig();

    // The healthy job is a milliseconds-long counting loop, so the
    // cap has orders-of-magnitude headroom even under TSan (where
    // simulation is ~10x slower) and even while the hung job's spin
    // steals wall-clock on a one-core host. The hung job gets cut
    // at the cap regardless of how large it is.
    RunConfig healthy;
    healthy.workload = "par-tiny";
    healthy.platform = host::xeonConfig();

    std::vector<RunResult> results =
        runExperiments({hung, healthy}, 2, 10.0);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].exitCause, sim::ExitCause::WatchdogTimeout);
    EXPECT_FALSE(results[0].exitMessage.empty());
    EXPECT_EQ(results[1].exitCause, sim::ExitCause::Finished);

    // The healthy job's result under the cap is byte-identical to
    // the serial capped reference — the cap changes scheduling
    // safety, never results.
    std::vector<RunResult> serial =
        runExperiments({healthy}, 1, 10.0);
    ASSERT_EQ(serial.size(), 1u);
    EXPECT_EQ(resultSignature(results[1]), resultSignature(serial[0]));

    // A config that already supervises with a tighter budget keeps
    // it: withJobWallCap is the identity there.
    RunConfig tight = hung;
    tight.run.supervise = true;
    tight.run.watchdog.maxWallSeconds = 0.05;
    RunConfig capped = withJobWallCap(tight, 0.2);
    EXPECT_DOUBLE_EQ(capped.run.watchdog.maxWallSeconds, 0.05);

    RunConfig widened = withJobWallCap(RunConfig{}, 0.2);
    EXPECT_TRUE(widened.run.supervise);
    EXPECT_DOUBLE_EQ(widened.run.watchdog.maxWallSeconds, 0.2);
}

// ---------------------------------------------------------------
// Decoder isolation audit
// ---------------------------------------------------------------

TEST(Parallel, DecoderInstancesShareNothing)
{
    // Each run owns its Decoder: caching in one instance must not be
    // visible in another, and the uncached path must mint fresh
    // instructions (no hidden global instance pool).
    std::uint64_t word = encode(Opcode::Add, 1, 2, 3, 0);

    Decoder a;
    Decoder b;
    auto ia = a.decode(word);
    EXPECT_EQ(a.cacheSize(), 1u);
    EXPECT_EQ(b.cacheSize(), 0u);
    EXPECT_EQ(b.numDecodes(), 0u);

    auto ib = b.decode(word);
    EXPECT_NE(ia.get(), ib.get());
    EXPECT_EQ(ia->disassemble(), ib->disassemble());

    EXPECT_NE(Decoder::decodeOne(word).get(),
              Decoder::decodeOne(word).get());
}

TEST(Parallel, ConcurrentDecodersAreIndependent)
{
    std::vector<std::uint64_t> words{
        encode(Opcode::Add, 1, 2, 3, 0),
        encode(Opcode::Addi, 1, 2, 0, -5),
        encode(Opcode::Ld, 1, 2, 0, 16),
        encode(Opcode::Sd, 0, 2, 3, 24),
        encode(Opcode::Beq, 0, 1, 2, 8),
    };

    std::vector<std::size_t> cacheSizes(4);
    std::vector<std::uint64_t> decodes(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 4; ++t)
        threads.emplace_back([t, &words, &cacheSizes, &decodes] {
            Decoder d;
            for (int round = 0; round < 100; ++round)
                for (std::uint64_t w : words)
                    d.decode(w);
            cacheSizes[t] = d.cacheSize();
            decodes[t] = d.numDecodes();
        });
    for (auto &thread : threads)
        thread.join();

    for (std::size_t t = 0; t < 4; ++t) {
        EXPECT_EQ(cacheSizes[t], words.size());
        EXPECT_EQ(decodes[t], 100u * words.size());
    }
}

// ---------------------------------------------------------------
// Pipelined trace->host stage
// ---------------------------------------------------------------

namespace
{

using trace::HostOp;
using trace::PipelinedSink;

/**
 * runProfiledSimulation rebuilt with the synthesizer feeding the
 * host model directly, on this thread: the serial chain the
 * pipelined run must reproduce bit for bit. Covers default tuning
 * (every config below), fast-forward included.
 */
RunResult
runSerialChain(const RunConfig &config)
{
    RunResult result;
    result.workload = config.workload;
    result.platform = config.platform.name;
    result.cpuModel = config.cpuModel;
    result.mode = config.mode;

    sim::Simulator simulator("system");
    auto workload = workloads::Registry::instance().create(
        config.workload, config.workloadScale);
    bool fast_forward = config.fastForwardInsts > 0 &&
                        config.cpuModel != CpuModel::Atomic;
    SystemConfig sys_cfg;
    sys_cfg.cpuModel = fast_forward ? CpuModel::Atomic
                                    : config.cpuModel;
    sys_cfg.mode = config.mode;
    sys_cfg.numCpus = config.guestCpus;
    sys_cfg.maxInstsPerCpu = config.maxGuestInsts;
    System system(simulator, sys_cfg, *workload);

    host::HostPlatformConfig platform = effectivePlatform(config);
    trace::LayoutOptions layout_opts;
    layout_opts.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
    trace::CodeLayout layout(trace::FuncRegistry::instance(),
                             layout_opts);
    host::PageSizePolicy policy(platform.pageBits);
    host::HostCore core(platform, policy);
    trace::Synthesizer synth(layout, core, config.seed);
    trace::Recorder recorder;
    recorder.addConsumer(&synth);
    recorder.activate();

    sim::SimResult res;
    if (fast_forward) {
        system.cpu(0).setInstMilestone(
            config.fastForwardInsts, [&simulator] {
                simulator.exitSimLoop("fast-forward boundary",
                                      sim::ExitCause::User);
            });
        res = system.run();
        if (res.cause == sim::ExitCause::User) {
            system.switchCpu(config.cpuModel);
            res = system.run();
        }
    } else {
        res = system.run();
    }
    recorder.deactivate();
    synth.flush();

    result.exitCause = res.cause;
    result.counters = core.counters();
    result.topdown = core.topdown();
    result.hostSeconds = core.seconds(config.tuning.turbo);
    result.ipc = result.counters.ipc();
    result.hostInsts = result.counters.insts;
    result.codeBytes = layout.totalCodeBytes();
    result.guestInsts = system.totalInsts();
    result.simTicks = res.tick;
    result.guestResult = system.result();
    std::uint64_t expected = workload->expectedResult(config.guestCpus);
    result.resultChecked = expected != 0 && config.maxGuestInsts == 0;
    result.resultOk =
        !result.resultChecked || result.guestResult == expected;
    result.functionProfile = hostProfileFromSelfOps(synth.selfOps());
    result.distinctFunctions = result.functionProfile.rows.size();
    return result;
}

/** Records every op it is handed, in order, and counts batches. */
struct RecordingSink : trace::HostInstSink
{
    void op(const HostOp &op) override { ops(&op, 1); }

    void
    ops(const HostOp *batch, std::size_t count) override
    {
        ++batches;
        stream.insert(stream.end(), batch, batch + count);
    }

    std::vector<HostOp> stream;
    std::size_t batches = 0;
};

/** A recognizable op: its pc is its position in the stream. */
HostOp
numberedOp(std::size_t i)
{
    HostOp op;
    op.pc = 0x40'0000 + i;
    return op;
}

std::vector<HostOp>
numberedOps(std::size_t first, std::size_t count)
{
    std::vector<HostOp> ops;
    for (std::size_t i = 0; i < count; ++i)
        ops.push_back(numberedOp(first + i));
    return ops;
}

/** Raised by FailingSink. */
struct DownstreamFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Throws DownstreamFailure from its third batch. */
struct FailingSink : trace::HostInstSink
{
    void op(const HostOp &op) override { ops(&op, 1); }

    void
    ops(const HostOp *, std::size_t) override
    {
        if (++batches == 3)
            throw DownstreamFailure("third batch");
    }

    std::size_t batches = 0;
};

/** Drives @p synth through enough scopes to emit several batches. */
void
driveSynthesizer(trace::Synthesizer &synth, std::size_t min_ops)
{
    auto &reg = trace::FuncRegistry::instance();
    trace::FuncId outer =
        reg.lookup("Pipe::outer", trace::FuncKind::EventHandler);
    trace::FuncId inner =
        reg.lookup("Pipe::inner", trace::FuncKind::MemAccess);
    for (int i = 0; synth.opsEmitted() < min_ops; ++i) {
        synth.funcEnter(outer);
        synth.funcEnter(inner);
        synth.dataRef(0x2000'0000 + (HostAddr)(i % 512) * 64, 8,
                      i % 2);
        synth.funcExit(inner);
        synth.funcExit(outer);
    }
}

} // namespace

TEST(PipelinedSink, ProfiledRunsMatchSerialChain)
{
    std::vector<RunConfig> configs;
    for (CpuModel model : allCpuModels) {
        RunConfig cfg;
        cfg.workload = "water_nsquared";
        cfg.workloadScale = 0.25;
        cfg.cpuModel = model;
        cfg.platform = host::xeonConfig();
        configs.push_back(cfg);
    }
    // Two cores kept coherent by MESI: the op stream interleaves
    // both CPUs' scopes and the coherence traffic.
    RunConfig mesi;
    mesi.workload = "lu_threads";
    mesi.workloadScale = 0.75;
    mesi.cpuModel = CpuModel::Timing;
    mesi.guestCpus = 2;
    mesi.platform = host::xeonConfig();
    configs.push_back(mesi);
    // Atomic to the boundary, then switchCpu to O3 mid-run.
    RunConfig ffwd = configs[0];
    ffwd.cpuModel = CpuModel::O3;
    ffwd.fastForwardInsts = 5000;
    ffwd.seed = 3;
    configs.push_back(ffwd);

    for (const RunConfig &cfg : configs) {
        SCOPED_TRACE(cfg.workload + " on " + cpuModelName(cfg.cpuModel) +
                     " x" + std::to_string(cfg.guestCpus));
        RunResult piped = runProfiledSimulation(cfg);
        RunResult serial = runSerialChain(cfg);
        ASSERT_EQ(piped.exitCause, sim::ExitCause::Finished);
        EXPECT_TRUE(piped.resultOk);
        EXPECT_GT(piped.hostInsts, 2 * PipelinedSink::slotOps *
                                       PipelinedSink::ringSlots);
        EXPECT_EQ(resultSignature(piped), resultSignature(serial));
    }
}

TEST(PipelinedSink, ForwardsEveryOpInOrder)
{
    RecordingSink sink;
    std::vector<HostOp> sent;
    {
        PipelinedSink pipe(sink);
        auto send = [&](const std::vector<HostOp> &batch) {
            pipe.ops(batch.data(), batch.size());
            sent.insert(sent.end(), batch.begin(), batch.end());
        };
        // Batches smaller than, equal to and larger than a slot (the
        // last is split across slots), an empty one, and single ops.
        send(numberedOps(0, 10));
        send(numberedOps(10, PipelinedSink::slotOps));
        send(numberedOps(10 + PipelinedSink::slotOps,
                         3 * PipelinedSink::slotOps + 7));
        pipe.ops(nullptr, 0);
        for (std::size_t i = 0; i < 5; ++i) {
            HostOp op = numberedOp(sent.size());
            pipe.op(op);
            sent.push_back(op);
        }

        // A drain mid-stream leaves the stage usable.
        pipe.drain();
        EXPECT_EQ(sink.stream.size(), sent.size());
        send(numberedOps(sent.size(), 100));
        pipe.drain();
    }
    ASSERT_EQ(sink.stream.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i)
        ASSERT_EQ(sink.stream[i].pc, sent[i].pc) << "op " << i;
    // 10 | slot | 3 slots + 7 | five single ops | 100.
    EXPECT_EQ(sink.batches, 1u + 1u + 4u + 5u + 1u);
}

TEST(PipelinedSink, DrainRethrowsDownstreamFailure)
{
    FailingSink sink;
    PipelinedSink pipe(sink);
    std::vector<HostOp> batch = numberedOps(0, 64);
    for (int i = 0; i < 10; ++i)
        pipe.ops(batch.data(), batch.size()); // never throws
    EXPECT_THROW(pipe.drain(), DownstreamFailure);

    // Everything after the failing batch is dropped, and the failure
    // stays reported.
    pipe.ops(batch.data(), batch.size());
    EXPECT_THROW(pipe.drain(), DownstreamFailure);
    EXPECT_EQ(sink.batches, 3u);
}

TEST(PipelinedSink, UnwindingThroughSynthesizerAfterFailure)
{
    // A failure elsewhere in the run unwinds through ~Synthesizer,
    // which flushes its tail into a stage whose downstream already
    // failed; neither may throw (std::terminate) or hang.
    FailingSink sink;
    trace::CodeLayout layout(trace::FuncRegistry::instance());
    auto failing_run = [&] {
        PipelinedSink pipe(sink);
        trace::Synthesizer synth(layout, pipe, 9);
        driveSynthesizer(synth, 6 * trace::Synthesizer::batchOps + 100);
        throw std::logic_error("simulation failed mid-run");
    };
    EXPECT_THROW(failing_run(), std::logic_error);
    EXPECT_EQ(sink.batches, 3u);

    // The same chain drained normally reports the sink's failure.
    FailingSink sink2;
    PipelinedSink pipe(sink2);
    trace::Synthesizer synth(layout, pipe, 9);
    driveSynthesizer(synth, 6 * trace::Synthesizer::batchOps + 100);
    synth.flush();
    EXPECT_THROW(pipe.drain(), DownstreamFailure);
}

TEST(PipelinedSink, DestructionJoinsWithSlotsQueued)
{
    /** Takes its time over every batch. */
    struct SlowSink : RecordingSink
    {
        void
        ops(const HostOp *batch, std::size_t count) override
        {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            RecordingSink::ops(batch, count);
        }
    } sink;

    const std::size_t batches = PipelinedSink::ringSlots + 2;
    {
        PipelinedSink pipe(sink);
        std::vector<HostOp> batch = numberedOps(0, 32);
        for (std::size_t i = 0; i < batches; ++i)
            pipe.ops(batch.data(), batch.size());
        // No drain: the destructor runs with slots still queued.
    }
    // The worker finished the queue before the join.
    EXPECT_EQ(sink.batches, batches);
    EXPECT_EQ(sink.stream.size(), batches * 32);
}
