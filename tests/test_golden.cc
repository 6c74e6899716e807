/**
 * @file
 * Golden-run regression harness: each CPU model runs a fixed workload
 * (plus a few targeted runs: a long sampling guest, a threaded 2-core
 * guest, a 4-core MESI stress) and the complete stats dump is reduced
 * to an FNV-1a digest over the sorted (name, value) pairs. The digest is compared against a
 * checked-in fixture in tests/golden/; any drift — a changed counter,
 * a renamed stat, a perturbed timing model — fails the test with a
 * line-level diff against the fixture. Two more fixtures pin the
 * other half of the pipeline: the synthesized host-op stream, and the
 * host model's counters and Top-Down breakdown for a profiled run on
 * every CPU model.
 *
 * Intentional changes are blessed by re-running with --update-golden,
 * which rewrites the fixtures in the source tree.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "mem/mem_tester.hh"
#include "os/system.hh"
#include "trace/code_layout.hh"
#include "trace/recorder.hh"
#include "trace/synthesizer.hh"
#include "workloads/workload.hh"

using namespace g5p;
using namespace g5p::isa;
using namespace g5p::os;

namespace
{

bool updateGolden = false;

class GoldenWorkload : public GuestWorkload
{
  public:
    std::string name() const override { return "golden"; }

    void
    emit(Assembler &as, unsigned num_cpus, SimMode mode) const override
    {
        // A mix of ALU ops, strided stores, dependent loads, and a
        // data-dependent branch: enough to give every stat in the
        // machine a nonzero, model-specific value.
        as.label("_start");
        as.li(RegS1, 0);
        as.li(RegS0, 0);
        as.li(RegT3, 1200);
        as.li(RegT2, 0x400000);
        as.label("loop");
        as.mul(RegT0, RegS0, RegS0);
        as.andi(RegT1, RegS0, 255);
        as.slli(RegT1, RegT1, 3);
        as.add(RegT1, RegT1, RegT2);
        as.sd(RegT0, RegT1, 0);
        as.ld(RegT0, RegT1, 0);
        as.andi(RegT4, RegS0, 3);
        as.bne(RegT4, RegZero, "skip");
        as.add(RegS1, RegS1, RegT0);
        as.label("skip");
        as.addi(RegS0, RegS0, 1);
        as.blt(RegS0, RegT3, "loop");
        as.li(RegT0, (std::int64_t)resultAddr);
        as.sd(RegS1, RegT0, 0);
        as.halt();
    }
};

/**
 * Sorted "name value" pairs straight off the stats visitor — the
 * same reduction the text dump used to be re-parsed into (default
 * ostream double formatting keeps the digests fixture-compatible).
 */
class LineVisitor : public sim::stats::Visitor
{
  public:
    void
    value(const std::string &dotted, double value,
          const sim::stats::Info &) override
    {
        std::ostringstream os;
        os << dotted << " " << value;
        lines.push_back(os.str());
    }

    std::vector<std::string> lines;
};

std::vector<std::string>
statLines(const sim::stats::Group &root)
{
    LineVisitor v;
    root.visit(v);
    std::sort(v.lines.begin(), v.lines.end());
    return v.lines;
}

std::uint64_t
fnv1a(const std::vector<std::string> &lines)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (const std::string &line : lines) {
        for (unsigned char c : line)
            hash = (hash ^ c) * 1099511628211ULL;
        hash = (hash ^ (unsigned char)'\n') * 1099511628211ULL;
    }
    return hash;
}

void
writeFixture(const std::string &path, std::uint64_t digest,
             const std::vector<std::string> &lines)
{
    std::ofstream os(path);
    ASSERT_TRUE(os.good()) << "cannot write fixture " << path;
    os << "digest " << std::hex << digest << std::dec << "\n";
    for (const auto &line : lines)
        os << line << "\n";
}

struct Fixture
{
    bool present = false;
    std::uint64_t digest = 0;
    std::vector<std::string> lines;
};

Fixture
readFixture(const std::string &path)
{
    Fixture fx;
    std::ifstream is(path);
    if (!is.good())
        return fx;
    std::string word;
    is >> word >> std::hex >> fx.digest >> std::dec;
    if (word != "digest") {
        ADD_FAILURE() << "malformed fixture " << path;
        return fx;
    }
    std::string line;
    std::getline(is, line); // rest of the digest line
    while (std::getline(is, line))
        if (!line.empty())
            fx.lines.push_back(line);
    fx.present = true;
    return fx;
}

/** First few fixture-vs-run line differences, for the failure text. */
std::string
diffLines(const std::vector<std::string> &want,
          const std::vector<std::string> &got)
{
    std::ostringstream os;
    int shown = 0;
    std::size_t i = 0, j = 0;
    while ((i < want.size() || j < got.size()) && shown < 12) {
        if (i < want.size() && j < got.size() &&
            want[i] == got[j]) {
            ++i, ++j;
        } else if (j >= got.size() ||
                   (i < want.size() && want[i] < got[j])) {
            os << "  - " << want[i++] << "\n";
            ++shown;
        } else {
            os << "  + " << got[j++] << "\n";
            ++shown;
        }
    }
    if (i < want.size() || j < got.size())
        os << "  ... (more differences)\n";
    return os.str();
}

/**
 * Compare @p lines against tests/golden/<fixture>.txt, or rewrite
 * that fixture under --update-golden.
 */
void
expectMatchesFixture(const std::vector<std::string> &lines,
                     const std::string &fixture)
{
    std::uint64_t digest = fnv1a(lines);
    std::string path =
        std::string(G5P_GOLDEN_DIR) + "/" + fixture + ".txt";

    if (updateGolden) {
        writeFixture(path, digest, lines);
        std::printf("updated %s\n", path.c_str());
        return;
    }

    Fixture fx = readFixture(path);
    ASSERT_TRUE(fx.present)
        << "no golden fixture at " << path
        << "; run test_golden --update-golden to create it";
    EXPECT_EQ(fx.digest, digest)
        << "stats drifted from golden run " << fixture
        << "; if intentional, bless with --update-golden.\n"
        << "Line diff (- fixture, + this run):\n"
        << diffLines(fx.lines, lines);
}

class GoldenRun : public ::testing::TestWithParam<CpuModel>
{};

TEST_P(GoldenRun, StatsDigestMatchesFixture)
{
    CpuModel model = GetParam();
    GoldenWorkload wl;

    sim::Simulator sim("system");
    SystemConfig cfg;
    cfg.cpuModel = model;
    System system(sim, cfg, wl);
    auto res = system.run(5'000'000'000'000ULL);
    ASSERT_EQ(res.cause, sim::ExitCause::Finished);

    expectMatchesFixture(statLines(sim), cpuModelName(model));
}

INSTANTIATE_TEST_SUITE_P(
    Models, GoldenRun, ::testing::ValuesIn(allCpuModels),
    [](const auto &info) {
        return std::string(cpuModelName(info.param));
    });

TEST(GoldenWorkloads, WaterNsquaredLongDigestMatchesFixture)
{
    // The long-horizon sampling guest: pin its Atomic-run stats (at a
    // CI-sized scale) and its checksum so the variant can't silently
    // drift apart from plain water_nsquared.
    auto wl = workloads::Registry::instance().create(
        "water_nsquared_long", 0.25);

    sim::Simulator sim("system");
    SystemConfig cfg;
    System system(sim, cfg, *wl);
    auto res = system.run(5'000'000'000'000ULL);
    ASSERT_EQ(res.cause, sim::ExitCause::Finished);
    EXPECT_EQ(system.result(), wl->expectedResult(1));

    expectMatchesFixture(statLines(sim), "water_nsquared_long");
}

TEST(GoldenWorkloads, RadixThreadsTwoCoreDigestMatchesFixture)
{
    // The coherent multi-core path: a 2-core Timing run of the
    // threaded radix kernel pins every coherence-facing stat (cache
    // invalidations, xbar snoop counts, per-core commit counts) so
    // protocol changes can't drift silently.
    auto wl = workloads::Registry::instance().create("radix_threads",
                                                     0.25);

    sim::Simulator sim("system");
    SystemConfig cfg;
    cfg.cpuModel = CpuModel::Timing;
    cfg.numCpus = 2;
    System system(sim, cfg, *wl);
    auto res = system.run(5'000'000'000'000ULL);
    ASSERT_EQ(res.cause, sim::ExitCause::Finished);
    EXPECT_EQ(system.result(), wl->expectedResult(2));

    expectMatchesFixture(statLines(sim), "radix_threads_2core");
}

TEST(GoldenWorkloads, MesiStressFourCoreDigestMatchesFixture)
{
    // Heavy 4-core Timing MESI traffic: the coherence stress tester
    // fights over false-shared lines, so upgrades, snoop
    // invalidations and fill races all occur. The threaded guests
    // above make only a handful of invalidations, so without this run
    // the fixtures would not pin the coherence path under load.
    sim::Simulator sim("tester");
    mem::MemTesterParams p;
    p.numCores = 4;
    p.seed = 7;
    p.opsPerCore = 400;
    p.atomicMode = false;
    mem::MemTester tester(sim, "mt", p);
    auto res = sim.run();
    ASSERT_EQ(res.cause, sim::ExitCause::Finished);
    ASSERT_TRUE(tester.allDone());
    EXPECT_TRUE(tester.violations().empty());

    std::vector<std::string> lines = statLines(sim);
    const std::string inval = "tester.mt.xbar.snoopInvalidations ";
    auto it = std::find_if(lines.begin(), lines.end(),
                           [&](const std::string &line) {
                               return line.rfind(inval, 0) == 0;
                           });
    ASSERT_NE(it, lines.end()) << "no " << inval << "stat";
    EXPECT_GT(std::stod(it->substr(inval.size())), 0.0);

    expectMatchesFixture(lines, "mesi_stress_4core");
}

/**
 * "name value" lines for every host-side result of a profiled run:
 * each HostCounters field, each Top-Down fraction, the host
 * instruction count and the function count. Doubles are written as
 * their bit patterns in hex, so a one-ulp drift changes the digest.
 */
std::vector<std::string>
hostLines(const core::RunResult &r)
{
    std::vector<std::string> lines;
    std::string prefix = std::string(cpuModelName(r.cpuModel)) + ".";
    auto count = [&](const char *name, std::uint64_t v) {
        lines.push_back(prefix + name + " " + std::to_string(v));
    };
    auto bits = [&](const char *name, double v) {
        char hex[24];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      (unsigned long long)std::bit_cast<std::uint64_t>(v));
        lines.push_back(prefix + name + " " + hex);
    };

    const host::HostCounters &c = r.counters;
    count("counters.insts", c.insts);
    count("counters.uops", c.uops);
    count("counters.loads", c.loads);
    count("counters.stores", c.stores);
    count("counters.branches", c.branches);
    bits("counters.baseCycles", c.baseCycles);
    bits("counters.feLatIcacheCycles", c.feLatIcacheCycles);
    bits("counters.feLatItlbCycles", c.feLatItlbCycles);
    bits("counters.feLatMispredictCycles", c.feLatMispredictCycles);
    bits("counters.feLatUnknownCycles", c.feLatUnknownCycles);
    bits("counters.feLatClearCycles", c.feLatClearCycles);
    bits("counters.feBwMiteCycles", c.feBwMiteCycles);
    bits("counters.feBwDsbCycles", c.feBwDsbCycles);
    bits("counters.badSpecCycles", c.badSpecCycles);
    bits("counters.beMemCycles", c.beMemCycles);
    bits("counters.beCoreCycles", c.beCoreCycles);
    count("counters.icacheAccesses", c.icacheAccesses);
    count("counters.icacheMisses", c.icacheMisses);
    count("counters.dcacheAccesses", c.dcacheAccesses);
    count("counters.dcacheMisses", c.dcacheMisses);
    count("counters.itlbAccesses", c.itlbAccesses);
    count("counters.itlbMisses", c.itlbMisses);
    count("counters.dtlbAccesses", c.dtlbAccesses);
    count("counters.dtlbMisses", c.dtlbMisses);
    count("counters.l2Misses", c.l2Misses);
    count("counters.llcMisses", c.llcMisses);
    count("counters.mispredicts", c.mispredicts);
    count("counters.unknownBranches", c.unknownBranches);
    count("counters.uopsFromDsb", c.uopsFromDsb);
    count("counters.uopsFromMite", c.uopsFromMite);
    count("counters.dramBytes", c.dramBytes);
    count("counters.llcOccupancyBytes", c.llcOccupancyBytes);

    const host::TopdownBreakdown &t = r.topdown;
    bits("topdown.retiring", t.retiring);
    bits("topdown.badSpeculation", t.badSpeculation);
    bits("topdown.frontendLatency", t.frontendLatency);
    bits("topdown.frontendBandwidth", t.frontendBandwidth);
    bits("topdown.backendBound", t.backendBound);
    bits("topdown.feIcache", t.feIcache);
    bits("topdown.feItlb", t.feItlb);
    bits("topdown.feMispredictResteers", t.feMispredictResteers);
    bits("topdown.feUnknownBranches", t.feUnknownBranches);
    bits("topdown.feClearResteers", t.feClearResteers);
    bits("topdown.feMite", t.feMite);
    bits("topdown.feDsb", t.feDsb);
    bits("topdown.beMemory", t.beMemory);
    bits("topdown.beCore", t.beCore);

    count("hostInsts", r.hostInsts);
    count("distinctFunctions", r.distinctFunctions);
    return lines;
}

TEST(GoldenHost, ProfiledWaterNsquaredCountersMatchFixture)
{
    // The host half of the pipeline (synthesizer -> host model) on
    // every CPU model: a change to the op stream or to any host
    // structure's arithmetic moves at least one of these lines.
    std::vector<std::string> lines;
    for (CpuModel model : allCpuModels) {
        core::RunConfig cfg;
        cfg.workload = "water_nsquared";
        cfg.workloadScale = 0.25;
        cfg.cpuModel = model;
        cfg.platform = host::xeonConfig();
        core::RunResult r = core::runProfiledSimulation(cfg);
        ASSERT_EQ(r.exitCause, sim::ExitCause::Finished);
        ASSERT_TRUE(r.resultOk) << cpuModelName(model);
        std::vector<std::string> model_lines = hostLines(r);
        lines.insert(lines.end(), model_lines.begin(),
                     model_lines.end());
    }
    std::sort(lines.begin(), lines.end());

    expectMatchesFixture(lines, "host_water_nsquared");
}

/**
 * FNV-1a over each op's semantic fields: pc, length, µops and kind,
 * plus the flags and target of a branch or the address and size of
 * a load or store. Fields an op's kind does not use are left out, so
 * the digest pins what the stream says, not how HostOp stores it.
 */
class DigestSink : public trace::HostInstSink
{
  public:
    void op(const trace::HostOp &op) override { ops(&op, 1); }

    void
    ops(const trace::HostOp *batch, std::size_t count) override
    {
        using Kind = trace::HostOp::Kind;
        for (std::size_t i = 0; i < count; ++i) {
            const trace::HostOp &op = batch[i];
            feed(op.pc, 8);
            feed(op.lenBytes, 1);
            feed(op.uops, 1);
            feed((std::uint64_t)op.kind, 1);
            if (op.kind == Kind::Branch) {
                feed((unsigned)op.taken | (unsigned)op.conditional << 1 |
                         (unsigned)op.indirect << 2 |
                         (unsigned)op.isCall << 3 |
                         (unsigned)op.isReturn << 4,
                     1);
                feed(op.target, 8);
            } else if (op.kind == Kind::Load ||
                       op.kind == Kind::Store) {
                feed(op.dataAddr, 8);
                feed(op.dataSize, 1);
            }
        }
    }

    std::uint64_t digest = 14695981039346656037ULL;

  private:
    void
    feed(std::uint64_t value, unsigned bytes)
    {
        for (unsigned b = 0; b < bytes; ++b)
            digest = (digest ^ ((value >> (8 * b)) & 0xff)) *
                     1099511628211ULL;
    }
};

std::string
hex64(std::uint64_t v)
{
    char hex[24];
    std::snprintf(hex, sizeof hex, "0x%016llx", (unsigned long long)v);
    return hex;
}

/**
 * Run @p workload through Recorder -> Synthesizer -> DigestSink, set
 * up as runProfiledSimulation does for seed 1 and default tuning,
 * and return "<label>.<name> <value>" lines for the op count, the op
 * digest, a digest of the per-function self ops and the laid-out
 * text size. Self ops are hashed by function name, so the lines do
 * not depend on the order the process registered functions in.
 */
std::vector<std::string>
traceLines(const std::string &label, const std::string &workload,
           CpuModel model, unsigned cpus, double work_scale)
{
    auto wl = workloads::Registry::instance().create(workload, 0.25);
    sim::Simulator sim("system");
    SystemConfig cfg;
    cfg.cpuModel = model;
    cfg.numCpus = cpus;
    System system(sim, cfg, *wl);

    constexpr std::uint64_t seed = 1;
    trace::LayoutOptions layout_opts;
    layout_opts.seed ^= seed * 0x9e3779b97f4a7c15ULL;
    trace::CodeLayout layout(trace::FuncRegistry::instance(),
                             layout_opts);
    DigestSink sink;
    trace::Synthesizer synth(layout, sink, seed, work_scale);
    trace::Recorder recorder;
    recorder.addConsumer(&synth);
    recorder.activate();
    auto res = system.run();
    recorder.deactivate();
    synth.flush();
    EXPECT_EQ(res.cause, sim::ExitCause::Finished) << label;
    EXPECT_EQ(system.result(), wl->expectedResult(cpus)) << label;

    std::vector<std::string> self;
    const auto &registry = trace::FuncRegistry::instance();
    const std::vector<std::uint64_t> &self_ops = synth.selfOps();
    for (trace::FuncId id = 0; id < self_ops.size(); ++id)
        if (self_ops[id] != 0)
            self.push_back(registry.info(id).name + " " +
                           std::to_string(self_ops[id]));
    std::sort(self.begin(), self.end());

    return {
        label + ".opsEmitted " + std::to_string(synth.opsEmitted()),
        label + ".opDigest " + hex64(sink.digest),
        label + ".selfOpsDigest " + hex64(fnv1a(self)),
        label + ".totalCodeBytes " +
            std::to_string(layout.totalCodeBytes()),
    };
}

TEST(GoldenTrace, SynthesizedOpStreamMatchesFixture)
{
    // The op stream itself, ahead of any host structure: a change to
    // the synthesizer's output moves these lines even where the host
    // counters happen to come out equal.
    std::vector<std::string> lines;
    auto add = [&](std::vector<std::string> run) {
        lines.insert(lines.end(), run.begin(), run.end());
    };
    for (CpuModel model : allCpuModels)
        add(traceLines(cpuModelName(model), "water_nsquared", model, 1,
                       1.0));
    // The -O3 work scale draws one more random number per burst.
    add(traceLines("TimingO3Scale", "water_nsquared", CpuModel::Timing,
                   1, 0.995));
    // Two cores interleave their scopes in one event queue.
    add(traceLines("RadixThreads2core", "radix_threads",
                   CpuModel::Timing, 2, 1.0));
    std::sort(lines.begin(), lines.end());

    expectMatchesFixture(lines, "trace_ops");
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip our flag before gtest parses the rest.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden") {
            updateGolden = true;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
