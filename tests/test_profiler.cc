/**
 * @file
 * Self-observability layer: the profiler's event attribution, the
 * Chrome-trace and JSONL exports, the RunOptions run-control surface,
 * and the interplay of profiling with checkpoint/restore.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/telemetry.hh"
#include "os/system.hh"
#include "sim/profiler.hh"
#include "sim/run_options.hh"
#include "workloads/workload.hh"

using namespace g5p;
using namespace g5p::isa;
using namespace g5p::os;

namespace
{

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON validator: enough to prove the
// trace writer emits *syntactically* well-formed JSON, including
// escaping, without third-party dependencies.
// ---------------------------------------------------------------------

class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value(0))
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value(int depth)
    {
        if (depth > 64 || pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object(depth);
          case '[': return array(depth);
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default:  return number();
        }
    }

    bool
    object(int depth)
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value(depth + 1))
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool
    array(int depth)
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value(depth + 1))
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (c == '"') { ++pos_; return true; }
            if ((unsigned char)c < 0x20)
                return false; // raw control character
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= s_.size() ||
                            !std::isxdigit(
                                (unsigned char)s_[pos_]))
                            return false;
                    }
                } else if (!strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit((unsigned char)s_[pos_]) ||
                strchr(".eE+-", s_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() && std::isspace((unsigned char)s_[pos_]))
            ++pos_;
    }

    std::string s_; // by value: callers pass temporaries
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Machine fixture (same loop workload shape the robustness suite
// uses: stores, dependent loads, a branch).
// ---------------------------------------------------------------------

class LoopWorkload : public GuestWorkload
{
  public:
    std::string name() const override { return "prof-loop"; }

    void
    emit(Assembler &as, unsigned num_cpus, SimMode mode) const override
    {
        as.label("_start");
        as.li(RegS1, 0);
        as.li(RegS0, 0);
        as.li(RegT3, 800);
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
        as.li(RegT0, (std::int64_t)resultAddr);
        as.sd(RegS1, RegT0, 0);
        as.halt();
    }
};

const LoopWorkload &
loopWorkload()
{
    static LoopWorkload wl;
    return wl;
}

struct Machine
{
    sim::Simulator sim{"system"};
    System system;

    explicit Machine(CpuModel model = CpuModel::Timing)
        : system(sim, makeCfg(model), loopWorkload())
    {
    }

    static SystemConfig
    makeCfg(CpuModel model)
    {
        SystemConfig cfg;
        cfg.cpuModel = model;
        cfg.mode = SimMode::SE;
        cfg.numCpus = 1;
        return cfg;
    }
};

sim::ProfilerConfig
traceConfig()
{
    sim::ProfilerConfig pc;
    pc.enabled = true;
    pc.traceSlices = true;
    return pc;
}

std::string
tmpPath(const std::string &tag)
{
    return ::testing::TempDir() + "/g5p_prof_" + tag;
}

/** Sorted (class name -> count), the deterministic part of a run. */
std::map<std::string, std::uint64_t>
countsByClass(const sim::Profiler &prof)
{
    std::map<std::string, std::uint64_t> counts;
    for (const auto &cls : prof.eventClasses())
        counts[cls.name] = cls.count;
    return counts;
}

// ---------------------------------------------------------------------
// Attribution.
// ---------------------------------------------------------------------

TEST(Profiler, AttributesEveryServicedEvent)
{
    Machine m;
    sim::Profiler prof(traceConfig());
    m.sim.attachProfiler(prof);
    auto res = m.system.run();
    ASSERT_EQ(res.cause, sim::ExitCause::Finished);
    prof.disarm();

    EXPECT_GT(prof.totalEvents(), 0u);
    EXPECT_FALSE(prof.eventClasses().empty());

    // Counts are exact: every serviced event lands in exactly one
    // class, and all attributed wall time is non-negative. No class
    // keeps Event's default name, which no SimObject could be
    // charged for.
    std::uint64_t total = 0;
    for (const auto &cls : prof.eventClasses()) {
        total += cls.count;
        EXPECT_GE(cls.wallNs, 0.0) << cls.name;
        EXPECT_NE(cls.name, "event") << cls.count << " unnamed events";
        if (!cls.owner.empty())
            EXPECT_EQ(cls.owner + "." + cls.type, cls.name);
        else
            EXPECT_EQ(cls.type, cls.name);
    }
    EXPECT_EQ(total, prof.totalEvents());

    // The timing CPU's named member events must show up as classes
    // owned by "cpu0", and cpu0 must be a registered owner track.
    auto counts = countsByClass(prof);
    EXPECT_TRUE(counts.count("cpu0.tick")) << "no cpu0.tick class";
    bool cpu0_owner = false;
    for (const auto &owner : prof.owners())
        cpu0_owner |= owner.name == "cpu0";
    EXPECT_TRUE(cpu0_owner);

    // Trace mode records a slice per event (none dropped here).
    EXPECT_EQ(prof.slices().size() + prof.droppedSlices(),
              prof.totalEvents());
    EXPECT_EQ(prof.droppedSlices(), 0u);
}

TEST(Profiler, CountsDeterministicAcrossIdenticalRuns)
{
    std::map<std::string, std::uint64_t> first, second;
    std::uint64_t events_a = 0, events_b = 0;
    {
        Machine m;
        sim::Profiler prof(traceConfig());
        m.sim.attachProfiler(prof);
        ASSERT_EQ(m.system.run().cause, sim::ExitCause::Finished);
        first = countsByClass(prof);
        events_a = prof.totalEvents();
    }
    {
        Machine m;
        sim::Profiler prof(traceConfig());
        m.sim.attachProfiler(prof);
        ASSERT_EQ(m.system.run().cause, sim::ExitCause::Finished);
        second = countsByClass(prof);
        events_b = prof.totalEvents();
    }
    EXPECT_EQ(events_a, events_b);
    EXPECT_EQ(first, second);
}

TEST(Profiler, BatchModeCountsMatchTraceModeCounts)
{
    // Batch mode approximates per-class *time* but counts must stay
    // exact — identical to what trace mode sees.
    std::map<std::string, std::uint64_t> batched, traced;
    {
        Machine m;
        sim::ProfilerConfig pc;
        pc.enabled = true;
        pc.batchEvents = 32;
        sim::Profiler prof(pc);
        m.sim.attachProfiler(prof);
        ASSERT_EQ(m.system.run().cause, sim::ExitCause::Finished);
        batched = countsByClass(prof);
        EXPECT_TRUE(prof.slices().empty());
    }
    {
        Machine m;
        sim::Profiler prof(traceConfig());
        m.sim.attachProfiler(prof);
        ASSERT_EQ(m.system.run().cause, sim::ExitCause::Finished);
        traced = countsByClass(prof);
    }
    EXPECT_EQ(batched, traced);
}

TEST(Profiler, AttachedProfilerSurvivesConfigure)
{
    // configure() is run control only: a run configured after the
    // profiler was attached still reports to that profiler.
    Machine m;
    EXPECT_EQ(m.sim.profiler(), nullptr);
    sim::ProfilerConfig pc;
    pc.batchEvents = 16;
    sim::Profiler prof(pc);
    m.sim.attachProfiler(prof);

    sim::RunOptions run;
    run.supervise = true;
    run.watchdog.livelockEvents = 1u << 20;
    auto res = m.system.run(run);
    ASSERT_EQ(res.cause, sim::ExitCause::Finished);

    EXPECT_EQ(m.sim.profiler(), &prof);
    EXPECT_GT(prof.totalEvents(), 0u);
    EXPECT_FALSE(prof.counterSamples().empty());
}

// ---------------------------------------------------------------------
// Exports.
// ---------------------------------------------------------------------

TEST(Profiler, ChromeTraceIsWellFormedJson)
{
    Machine m;
    sim::Profiler prof(traceConfig());
    m.sim.attachProfiler(prof);
    ASSERT_EQ(m.system.run().cause, sim::ExitCause::Finished);
    prof.disarm();

    std::ostringstream os;
    core::writeChromeTrace(os, prof, "Timing", &m.sim);
    std::string text = os.str();

    JsonValidator v(text);
    EXPECT_TRUE(v.valid()) << "trace is not well-formed JSON";

    // Structural spot checks: slices, metadata, counters, and the
    // stats snapshot all made it in.
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(text.find("\"cpu0.tick\""), std::string::npos);
    EXPECT_NE(text.find("\"attribution\""), std::string::npos);
    EXPECT_NE(text.find("\"stats\""), std::string::npos);
}

TEST(Profiler, TraceEscapesHostileNames)
{
    sim::Profiler prof(traceConfig());
    prof.arm();
    prof.noteInstant("quote\"back\\slash", "line\nbreak\ttab");
    prof.disarm();

    std::ostringstream os;
    core::writeChromeTrace(os, prof, "hostile \"label\"");
    JsonValidator v(os.str());
    EXPECT_TRUE(v.valid());
}

TEST(Profiler, MetricsStreamIsJsonl)
{
    std::string path = tmpPath("metrics.jsonl");
    std::remove(path.c_str());
    {
        Machine m;
        sim::ProfilerConfig pc;
        pc.enabled = true;
        pc.batchEvents = 16;
        pc.metricsPath = path;
        pc.metricsEveryEvents = 64;
        sim::Profiler prof(pc);
        m.sim.attachProfiler(prof);
        ASSERT_EQ(m.system.run().cause, sim::ExitCause::Finished);
        prof.disarm();
    }
    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << "no metrics stream at " << path;
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        ++lines;
        JsonValidator v(line);
        EXPECT_TRUE(v.valid()) << "bad JSONL line: " << line;
        EXPECT_NE(line.find("\"eps\""), std::string::npos);
        EXPECT_NE(line.find("\"queue_depth\""), std::string::npos);
        EXPECT_NE(line.find("\"slowdown\""), std::string::npos);
    }
    EXPECT_GT(lines, 0u);
}

TEST(Profiler, HostProfileSharesSumToOne)
{
    Machine m;
    sim::Profiler prof(traceConfig());
    m.sim.attachProfiler(prof);
    ASSERT_EQ(m.system.run().cause, sim::ExitCause::Finished);
    prof.disarm();

    core::HostProfile hp = core::hostProfileFromSelf(prof);
    ASSERT_FALSE(hp.rows.empty());
    EXPECT_EQ(hp.unit, "ns");
    EXPECT_NEAR(hp.cumulativeShare(hp.rows.size()), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(hp.hottestShare(), hp.rows.front().share);
    for (std::size_t i = 1; i < hp.rows.size(); ++i)
        EXPECT_LE(hp.rows[i].weight, hp.rows[i - 1].weight);
}

// ---------------------------------------------------------------------
// Profiling across checkpoint/restore.
// ---------------------------------------------------------------------

TEST(Profiler, SurvivesCheckpointAndMarksIt)
{
    std::string path = tmpPath("ckpt_span.ckpt");

    Machine ref;
    auto full = ref.system.run();
    ASSERT_EQ(full.cause, sim::ExitCause::Finished);
    Tick half = full.tick / 2;

    Machine m;
    sim::Profiler prof(traceConfig());
    m.sim.attachProfiler(prof);
    auto part = m.system.run(half);
    ASSERT_EQ(part.cause, sim::ExitCause::TickLimit);
    m.sim.checkpoint(path);
    auto rest = m.system.run();
    ASSERT_EQ(rest.cause, sim::ExitCause::Finished);
    EXPECT_EQ(m.system.result(), ref.system.result());
    prof.disarm();

    bool saw_run = false, saw_ckpt = false;
    for (const auto &span : prof.spans()) {
        saw_run |= span.name == "run";
        saw_ckpt |= span.name == "checkpoint";
    }
    EXPECT_TRUE(saw_run);
    EXPECT_TRUE(saw_ckpt);
    EXPECT_GT(prof.totalEvents(), 0u);
}

TEST(Profiler, RestoredRunProfilesFromTheCheckpoint)
{
    std::string path = tmpPath("restore_span.ckpt");

    Machine ref;
    auto full = ref.system.run();
    ASSERT_EQ(full.cause, sim::ExitCause::Finished);
    Tick half = full.tick / 2;

    {
        Machine a;
        auto part = a.system.run(half);
        ASSERT_EQ(part.cause, sim::ExitCause::TickLimit);
        a.sim.checkpoint(path);
    }

    Machine b;
    sim::Profiler prof(traceConfig());
    b.sim.attachProfiler(prof);
    b.sim.restore(path);
    auto res = b.system.run();
    ASSERT_EQ(res.cause, sim::ExitCause::Finished);
    EXPECT_EQ(b.system.result(), ref.system.result());
    EXPECT_EQ(res.tick, full.tick);
    prof.disarm();

    bool saw_restore = false;
    for (const auto &span : prof.spans())
        saw_restore |= span.name == "restore";
    EXPECT_TRUE(saw_restore);

    // Only the resumed half is profiled: every slice tick is in the
    // restored run's tick range.
    EXPECT_GT(prof.totalEvents(), 0u);
    EXPECT_GE(prof.firstTick(), half);
}

// ---------------------------------------------------------------------
// RunOptions: the one run-control surface.
// ---------------------------------------------------------------------

TEST(RunOptionsApi, WatchdogViaConfigure)
{
    sim::Simulator simr("system");
    auto &q = simr.eventq();
    sim::EventFunctionWrapper ev(
        [&] { q.schedule(ev, q.curTick()); }, "spin");
    q.schedule(ev, 0);

    sim::RunOptions run;
    run.supervise = true;
    run.watchdog.livelockEvents = 64;
    simr.configure(run);
    auto res = simr.run();
    EXPECT_EQ(res.cause, sim::ExitCause::Livelock);
    EXPECT_EQ(simr.runOptions().watchdog.livelockEvents, 64u);

    if (ev.scheduled())
        q.deschedule(ev);
}

TEST(RunOptionsApi, ConfigureDoesNotPerturbTheRun)
{
    Machine ref;
    auto full = ref.system.run();
    ASSERT_EQ(full.cause, sim::ExitCause::Finished);

    Machine m;
    sim::ProfilerConfig pc;
    pc.batchEvents = 8;
    sim::Profiler prof(pc);
    m.sim.attachProfiler(prof);
    sim::RunOptions run;
    run.supervise = true;
    run.watchdog.livelockEvents = 1u << 20;
    run.watchdog.maxEvents = 1ull << 40;
    auto res = m.system.run(run);
    ASSERT_EQ(res.cause, sim::ExitCause::Finished);

    EXPECT_EQ(m.system.result(), ref.system.result());
    EXPECT_EQ(res.tick, full.tick);
}

TEST(RunOptionsApi, StatsVisitorMatchesTextDump)
{
    // The text dump is now just one visitor over the stats tree;
    // cross-check it against the raw (name, value) collection.
    Machine m;
    ASSERT_EQ(m.system.run().cause, sim::ExitCause::Finished);

    auto values = core::collectStatValues(m.sim);
    ASSERT_FALSE(values.empty());

    std::ostringstream dump;
    m.sim.dumpStats(dump);
    std::string text = dump.str();
    std::size_t lines = 0;
    for (char c : text)
        lines += c == '\n';
    EXPECT_EQ(lines, values.size());
    for (const auto &[dotted, value] : values) {
        std::ostringstream want;
        want << dotted << " " << value << " ";
        EXPECT_NE(text.find(want.str()), std::string::npos)
            << "dump is missing " << want.str();
    }
}

} // namespace
