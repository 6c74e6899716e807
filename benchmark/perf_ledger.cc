/**
 * @file
 * perf_ledger: the repository benchmark. One process runs one named
 * workload for a wall-clock budget, checks every simulated result,
 * prints each metric by name and unit, and ends with a one-line JSON
 * result. benchmark/README.md holds the metric, workload and layer
 * tables this file implements.
 *
 *   perf_ledger --workload NAME --seed N --seconds S [--trace 0|1]
 *               [--smoke] [--rev REV]
 *
 * --trace 0 measures the end-to-end metrics with nothing attached.
 * --trace 1 measures the per-layer split from outside, by timing the
 * calls into public entry points, and reports its own overhead.
 *
 * Only public entry points are used: the workload registry, Simulator
 * and System, runProfiledSimulation / runExperiments /
 * ParallelExecutor::forEach, and Recorder / Synthesizer / HostCore /
 * CodeLayout / FuncProfile / sim::Profiler. Baselines come from
 * running this file against another revision (benchmark/ab.sh), never
 * from copies of old code.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/func_profile.hh"
#include "core/parallel.hh"
#include "host/host_core.hh"
#include "os/system.hh"
#include "sim/profiler.hh"
#include "sim/serialize.hh"
#include "sim/simulator.hh"
#include "trace/code_layout.hh"
#include "trace/recorder.hh"
#include "trace/synthesizer.hh"
#include "workloads/workload.hh"

using namespace g5p;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
nsSince(Clock::time_point t0)
{
    return (std::uint64_t)std::chrono::duration_cast<
        std::chrono::nanoseconds>(Clock::now() - t0).count();
}

/** Constructions timed for setup_s (the fastest is reported). */
constexpr int setupConstructions = 21;

/** Pool width of the sweep workload (and the process thread cap). */
constexpr unsigned sweepWorkers = 4;

/** Reps the end-to-end phase runs even when its time budget is
 *  spent; each traced phase runs at least one. */
constexpr std::size_t minReps = 3;

// ------------------------------------------------------------------
// Statistics

/** Minimum, median and quartiles, the last three computed as
 *  Python's statistics.median and statistics.quantiles(n=4) compute
 *  them. */
struct Summary
{
    double min = 0, q1 = 0, median = 0, q3 = 0;
    std::size_t n = 0;
};

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    s.min = v[0];
    s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    if (n == 1) {
        s.q1 = s.q3 = v[0];
        return s;
    }
    auto quartile = [&](long i) {
        long ld = (long)n, m = ld + 1;
        long j = std::clamp(i * m / 4, 1L, ld - 1);
        double delta = (double)(i * m - j * 4);
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ------------------------------------------------------------------
// Workloads

enum class Kind { Sim, Profile, Sweep };

/** One simulation: a guest workload on a machine shape. */
struct Job
{
    const char *workload;
    os::CpuModel model;
    unsigned cores;
    double scale;      ///< nominal input scale
    double smokeScale; ///< --smoke input scale
};

struct Workload
{
    const char *name;
    Kind kind;
    std::vector<Job> jobs;
};

/**
 * The six workloads. Why each exists is in benchmark/README.md and
 * BENCHMARK.json; in short: a memory-bound Timing run, a
 * cache-resident O3 run, an Atomic control, a coherent 4-core run,
 * the profiling pipeline, and the pooled sweep with uneven jobs.
 */
const std::vector<Workload> &
workloadTable()
{
    using os::CpuModel;
    static const std::vector<Workload> table = [] {
        std::vector<Job> sweep;
        for (CpuModel model : os::allCpuModels) {
            sweep.push_back({"sieve", model, 1, 0.03125, 0.004});
            sweep.push_back({"water_nsquared", model, 1, 0.25, 0.03});
        }
        return std::vector<Workload>{
            {"sim-canneal-timing", Kind::Sim,
             {{"canneal", CpuModel::Timing, 1, 64, 4}}},
            {"sim-water-o3", Kind::Sim,
             {{"water_nsquared_long", CpuModel::O3, 1, 4, 0.25}}},
            {"sim-water-atomic", Kind::Sim,
             {{"water_nsquared_long", CpuModel::Atomic, 1, 4, 0.5}}},
            {"sim-lu-mesi4", Kind::Sim,
             {{"lu_threads", CpuModel::Timing, 4, 7.5, 1}}},
            {"profile-sieve-timing", Kind::Profile,
             {{"sieve", CpuModel::Timing, 1, 0.125, 0.01}}},
            {"profile-sweep-pool4", Kind::Sweep, sweep},
        };
    }();
    return table;
}

/** A job instantiated for one seed and mode. */
struct JobInst
{
    Job job;
    double scale;
    std::uint64_t runSeed; ///< RunConfig.seed on profile jobs
    std::string label;     ///< digest key, e.g. "canneal/Timing/1c/x64"
};

/**
 * Seed rule: seed k scales the input by (1 - 0.01 * (k mod 4)), which
 * stays inside every workload's valid range, and sets the profile
 * pipeline's RunConfig.seed to k + 1. Seed 0 is the nominal input.
 * The step is small because ns/inst itself moves with input size (by
 * up to 7% over a 15% change), which would read as spread between
 * seeds.
 */
std::vector<JobInst>
instantiate(const Workload &wl, std::uint64_t seed, bool smoke)
{
    double factor = 1.0 - 0.01 * (double)(seed % 4);
    std::vector<JobInst> out;
    for (const Job &job : wl.jobs) {
        JobInst ji{job, (smoke ? job.smokeScale : job.scale) * factor,
                   seed + 1, ""};
        std::ostringstream label;
        label << job.workload << '/' << os::cpuModelName(job.model)
              << '/' << job.cores << "c/x" << ji.scale;
        ji.label = label.str();
        out.push_back(ji);
    }
    return out;
}

core::RunConfig
runConfig(const JobInst &ji)
{
    core::RunConfig cfg;
    cfg.workload = ji.job.workload;
    cfg.cpuModel = ji.job.model;
    cfg.guestCpus = ji.job.cores;
    cfg.workloadScale = ji.scale;
    cfg.seed = ji.runSeed;
    cfg.platform = host::xeonConfig();
    return cfg;
}

// ------------------------------------------------------------------
// Failure accounting and output

/**
 * Counts attempted and failed jobs and collects the metrics. An
 * attempt is one job run, or one comparison with a recorded digest;
 * it fails at most once however many of its checks fail.
 */
class Ledger
{
  public:
    void
    attempt()
    {
        ++attempted_;
        attemptFailed_ = false;
    }

    /** Fail the current attempt (a throw, a bad exit, a checksum or a
     *  digest mismatch). */
    void
    fail(const std::string &what)
    {
        std::cout << "FAIL " << what << "\n";
        if (!attemptFailed_)
            ++failed_;
        attemptFailed_ = true;
    }

    /** Check @p ok; a false one is a failure described by @p what. */
    bool
    check(bool ok, const std::string &what)
    {
        if (!ok)
            fail(what);
        return ok;
    }

    void
    metric(const std::string &name, double value, const std::string &unit,
           const Summary *spread = nullptr)
    {
        if (!std::isfinite(value)) {
            attempt();
            fail("metric " + name + " is not finite");
            value = 0;
        }
        metrics_.push_back({name, value, unit});
        std::printf("metric %-32s %.6g %s", name.c_str(), value,
                    unit.c_str());
        if (spread)
            std::printf("  (reps: min %.6g, q1 %.6g, median %.6g, "
                        "q3 %.6g, n %zu)",
                        spread->min, spread->q1, spread->median, spread->q3,
                        spread->n);
        std::printf("\n");
    }

    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    /** The error rate, then the one-line JSON result (printed last). */
    void
    report() const
    {
        std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
                    ratio((double)failed_, (double)attempted_),
                    (unsigned long long)failed_,
                    (unsigned long long)attempted_);
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    correct() ? "true" : "false",
                    (unsigned long long)attempted_,
                    (unsigned long long)failed_);
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool attemptFailed_ = false;
    std::vector<Metric> metrics_;
};

// ------------------------------------------------------------------
// Digests

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/** Bit-exact rendering of every host counter, FNV-1a digested. */
std::uint64_t
countersDigest(const host::HostCounters &c)
{
    std::ostringstream os;
    os << std::hexfloat << c.insts << ' ' << c.uops << ' ' << c.loads
       << ' ' << c.stores << ' ' << c.branches << ' ' << c.baseCycles
       << ' ' << c.feLatIcacheCycles << ' ' << c.feLatItlbCycles << ' '
       << c.feLatMispredictCycles << ' ' << c.feLatUnknownCycles << ' '
       << c.feLatClearCycles << ' ' << c.feBwMiteCycles << ' '
       << c.feBwDsbCycles << ' ' << c.badSpecCycles << ' '
       << c.beMemCycles << ' ' << c.beCoreCycles << ' '
       << c.icacheAccesses << ' ' << c.icacheMisses << ' '
       << c.dcacheAccesses << ' ' << c.dcacheMisses << ' '
       << c.itlbAccesses << ' ' << c.itlbMisses << ' ' << c.dtlbAccesses
       << ' ' << c.dtlbMisses << ' ' << c.l2Misses << ' ' << c.llcMisses
       << ' ' << c.mispredicts << ' ' << c.unknownBranches << ' '
       << c.uopsFromDsb << ' ' << c.uopsFromMite << ' ' << c.dramBytes
       << ' ' << c.llcOccupancyBytes;
    return sim::checkpointDigest(os.str());
}

/** First line where two stats dumps differ ("" when identical). */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    while (true) {
        bool more_a = (bool)std::getline(sa, la);
        bool more_b = (bool)std::getline(sb, lb);
        if (!more_a && !more_b)
            return "";
        if (!more_a || !more_b || la != lb)
            return "'" + (more_a ? la : "<end>") + "' vs '" +
                   (more_b ? lb : "<end>") + "'";
    }
}

/**
 * Per-job reference digests: the first run of each job sets them,
 * every later run must reproduce them, and on seed 0 they must equal
 * the values recorded in benchmark/expected_digests.txt.
 */
class DigestBook
{
  public:
    DigestBook(std::string workload, bool compare_recorded)
        : workload_(std::move(workload)), compare_(compare_recorded)
    {
        // Lines as finish() prints them; anything else is a comment.
        std::ifstream in(G5P_BENCH_DIGESTS);
        std::string line, tag, wl, label, stats, host;
        while (std::getline(in, line)) {
            std::istringstream fields(line);
            if (fields >> tag >> wl >> label >> stats >> host &&
                tag == "digest" && wl == workload_)
                recorded_[label] = {stats, host};
        }
    }

    /** Check the simulated statistics of one run of @p ji. */
    void
    stats(Ledger &ledger, const JobInst &ji, const std::string &text)
    {
        Entry &e = entries_[ji.label];
        if (!e.haveStats) {
            e.haveStats = true;
            e.statsText = text;
            return;
        }
        std::string diff = firstDifference(e.statsText, text);
        ledger.check(diff.empty(), ji.label +
                                       ": stats differ between reps, "
                                       "first difference " + diff);
    }

    /** Check the host counters of one profiled run of @p ji. */
    void
    host(Ledger &ledger, const JobInst &ji, const host::HostCounters &c)
    {
        Entry &e = entries_[ji.label];
        std::string d = hex(countersDigest(c));
        if (e.host.empty()) {
            e.host = d;
            return;
        }
        ledger.check(d == e.host, ji.label + ": host counters differ "
                                             "between reps (" + e.host +
                                             " vs " + d + ")");
    }

    /** Print every digest and, on seed 0, compare with the record. */
    void
    finish(Ledger &ledger)
    {
        for (const auto &[label, e] : entries_) {
            std::string stats =
                e.haveStats ? hex(sim::checkpointDigest(e.statsText))
                            : "-";
            std::string host = e.host.empty() ? "-" : e.host;
            std::cout << "digest " << workload_ << ' ' << label << ' '
                      << stats << ' ' << host << "\n";
            if (!compare_)
                continue;
            ledger.attempt();
            auto it = recorded_.find(label);
            if (it == recorded_.end()) {
                ledger.fail(label + ": no recorded digest in " +
                            std::string(G5P_BENCH_DIGESTS));
                continue;
            }
            ledger.check(it->second.first == stats,
                         label + ": stats digest " + stats +
                             " != recorded " + it->second.first);
            ledger.check(it->second.second == host,
                         label + ": host digest " + host +
                             " != recorded " + it->second.second);
        }
    }

  private:
    struct Entry
    {
        bool haveStats = false;
        std::string statsText;
        std::string host;
    };

    std::string workload_;
    bool compare_;
    std::map<std::string, Entry> entries_;
    std::map<std::string, std::pair<std::string, std::string>> recorded_;
};

// ------------------------------------------------------------------
// Machines

/** A built mg5 machine (member order is destruction order). */
struct Machine
{
    std::unique_ptr<sim::Simulator> simulator;
    std::unique_ptr<os::GuestWorkload> workload;
    std::unique_ptr<os::System> system;
};

/** Seconds spent in each part of one construction. */
struct SetupTimes
{
    double workload = 0;  ///< Registry::create
    double system = 0;    ///< Simulator + System
    double hostModel = 0; ///< CodeLayout + HostCore (profile jobs)
};

/** Build @p ji's machine in runProfiledSimulation's order. */
Machine
buildMachine(const JobInst &ji, SetupTimes *times = nullptr)
{
    Machine m;
    auto t0 = Clock::now();
    m.simulator = std::make_unique<sim::Simulator>("system");
    auto t1 = Clock::now();
    m.workload = workloads::Registry::instance().create(ji.job.workload,
                                                        ji.scale);
    auto t2 = Clock::now();
    os::SystemConfig cfg;
    cfg.cpuModel = ji.job.model;
    cfg.numCpus = ji.job.cores;
    m.system = std::make_unique<os::System>(*m.simulator, cfg,
                                            *m.workload);
    if (times) {
        times->workload = std::chrono::duration<double>(t2 - t1).count();
        times->system = std::chrono::duration<double>(t1 - t0).count() +
                        since(t2);
    }
    return m;
}

/** The host half of a profiled run, built as runProfiledSimulation
 *  builds it for an untuned, single-process config. */
struct HostModel
{
    explicit HostModel(const core::RunConfig &cfg)
        : layout(trace::FuncRegistry::instance(), layoutOptions(cfg)),
          policy(cfg.platform.pageBits), core(cfg.platform, policy)
    {}

    static trace::LayoutOptions
    layoutOptions(const core::RunConfig &cfg)
    {
        trace::LayoutOptions opts;
        opts.seed ^= cfg.seed * 0x9e3779b97f4a7c15ULL;
        return opts;
    }

    trace::CodeLayout layout;
    host::PageSizePolicy policy;
    host::HostCore core;
};

/** Fastest construction cost of the workload's machines, each part
 *  and the total taken separately. */
struct Setup
{
    double total = 0, workload = 0, system = 0, hostModel = 0;
};

/**
 * Times rounds of construction (every job's machine once per round).
 * The rounds are spread over the whole measured run rather than taken
 * back to back: construction is mostly page faults, whose cost the
 * host's neighbours set, and a burst of their noise can cover a
 * second-long window but rarely a whole run. The noise only ever adds
 * time, so the fastest round is reported (benchmark/README.md).
 */
class SetupSampler
{
  public:
    SetupSampler(const std::vector<JobInst> &jobs, bool with_host)
        : jobs_(jobs), withHost_(with_host)
    {}

    /** Run rounds until a share @p done (capped at 1) of them ran. */
    void
    keepUp(double done)
    {
        while ((double)total_.size() <
               std::min(done, 1.0) * setupConstructions)
            round();
    }

    /** The fastest rounds, once every round has run. */
    Setup
    fastest()
    {
        keepUp(1);
        return {summarize(total_).min, summarize(workload_).min,
                summarize(system_).min, summarize(hostModel_).min};
    }

  private:
    void
    round()
    {
        SetupTimes sum;
        for (const JobInst &ji : jobs_) {
            SetupTimes t;
            Machine m = buildMachine(ji, &t);
            if (withHost_) {
                auto t0 = Clock::now();
                HostModel model(runConfig(ji));
                t.hostModel = since(t0);
            }
            sum.workload += t.workload;
            sum.system += t.system;
            sum.hostModel += t.hostModel;
        }
        workload_.push_back(sum.workload);
        system_.push_back(sum.system);
        hostModel_.push_back(sum.hostModel);
        total_.push_back(sum.workload + sum.system + sum.hostModel);
    }

    const std::vector<JobInst> &jobs_;
    bool withHost_;
    std::vector<double> total_, workload_, system_, hostModel_;
};

// ------------------------------------------------------------------
// Simulated statistics

/** Counts read from one run's stats dump and event queue. */
struct SimCounts
{
    double insts = 0, events = 0, cycles = 0;
    double l1dAccesses = 0, l1dMisses = 0, l2Accesses = 0, l2Misses = 0;
    double xbarTxns = 0, snoopInvals = 0, dramReads = 0;

    void
    add(const SimCounts &o)
    {
        insts += o.insts;
        events += o.events;
        cycles += o.cycles;
        l1dAccesses += o.l1dAccesses;
        l1dMisses += o.l1dMisses;
        l2Accesses += o.l2Accesses;
        l2Misses += o.l2Misses;
        xbarTxns += o.xbarTxns;
        snoopInvals += o.snoopInvals;
        dramReads += o.dramReads;
    }
};

SimCounts
readCounts(const std::string &stats_text, std::uint64_t insts,
           std::uint64_t events, Tick ticks, unsigned cores)
{
    SimCounts c;
    c.insts = (double)insts;
    c.events = (double)events;
    // One tick is a picosecond; core-cycles over all cores.
    c.cycles = (double)ticks * 1e-6 * (double)os::SystemConfig{}.cpuMHz *
               cores;
    std::istringstream in(stats_text);
    std::string line;
    auto ends = [](const std::string &s, const char *suffix) {
        std::size_t n = std::char_traits<char>::length(suffix);
        return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
    };
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        double v = 0;
        if (!(fields >> name >> v))
            continue;
        if (ends(name, ".dcache.hits"))
            c.l1dAccesses += v;
        else if (ends(name, ".dcache.misses"))
            c.l1dAccesses += v, c.l1dMisses += v;
        else if (name == "system.l2.hits")
            c.l2Accesses += v;
        else if (name == "system.l2.misses")
            c.l2Accesses += v, c.l2Misses += v;
        else if (name == "system.xbar.transactions")
            c.xbarTxns = v;
        else if (name == "system.xbar.snoopInvalidations")
            c.snoopInvals = v;
        else if (name == "system.dram.reads")
            c.dramReads = v;
    }
    return c;
}

// ------------------------------------------------------------------
// Plain (mg5-only) runs

struct SimRep
{
    bool ok = false;
    double wall = 0; ///< seconds inside System::run
    std::uint64_t insts = 0;
    std::uint64_t events = 0;
    Tick ticks = 0;
    std::string stats;
};

/**
 * Run @p ji to completion on a fresh machine, with @p profiler
 * attached when given. Construction is not timed. Checks the exit and
 * the guest checksum; the caller checks the digests.
 */
SimRep
runPlain(Ledger &ledger, const JobInst &ji, sim::Profiler *profiler = nullptr)
{
    SimRep rep;
    ledger.attempt();
    try {
        Machine m = buildMachine(ji);
        if (profiler)
            m.simulator->attachProfiler(*profiler);
        auto t0 = Clock::now();
        sim::SimResult res = m.system->run();
        rep.wall = since(t0);
        if (profiler)
            profiler->disarm();

        rep.insts = m.system->totalInsts();
        rep.events = m.simulator->eventq().numServiced();
        rep.ticks = res.tick;
        std::ostringstream stats;
        m.simulator->dumpStats(stats);
        rep.stats = stats.str();

        std::uint64_t expected = m.workload->expectedResult(ji.job.cores);
        rep.ok =
            ledger.check(res.cause == sim::ExitCause::Finished,
                         ji.label + ": exit " +
                             sim::exitCauseName(res.cause) + " " +
                             res.message) &&
            ledger.check(expected == 0 || m.system->result() == expected,
                         ji.label + ": guest checksum " +
                             std::to_string(m.system->result()) +
                             " != " + std::to_string(expected));
    } catch (const std::exception &e) {
        ledger.fail(ji.label + ": " + e.what());
    }
    return rep;
}

/** Check one profiled result's exit, checksum and guest work. */
bool
checkProfiled(Ledger &ledger, const JobInst &ji,
              const core::RunResult &r, std::uint64_t expected_insts)
{
    return ledger.check(r.exitCause == sim::ExitCause::Finished,
                        ji.label + ": exit " +
                            sim::exitCauseName(r.exitCause) + " " +
                            r.exitMessage) &&
           ledger.check(r.resultOk, ji.label + ": guest checksum "
                                               "mismatch") &&
           ledger.check(r.guestInsts == expected_insts,
                        ji.label + ": profiled run committed " +
                            std::to_string(r.guestInsts) +
                            " insts, plain run " +
                            std::to_string(expected_insts));
}

// ------------------------------------------------------------------
// The traced profile pipeline

/** Forwards the synthesized stream to the host model, timing it. */
class TimedSink final : public trace::HostInstSink
{
  public:
    explicit TimedSink(trace::HostInstSink &next) : next_(next) {}

    void
    op(const trace::HostOp &op) override
    {
        auto t0 = Clock::now();
        next_.op(op);
        ns += nsSince(t0);
    }

    void
    ops(const trace::HostOp *batch, std::size_t count) override
    {
        auto t0 = Clock::now();
        next_.ops(batch, count);
        ns += nsSince(t0);
    }

    std::uint64_t ns = 0;

  private:
    trace::HostInstSink &next_;
};

/** Forwards the recorder's stream to the synthesizer and the
 *  function profile, in runProfiledSimulation's consumer order,
 *  timing each call. */
class TimedConsumer final : public trace::TraceConsumer
{
  public:
    TimedConsumer(trace::Synthesizer &synth, core::FuncProfile &profile)
        : synth_(synth), profile_(profile)
    {}

    void
    funcEnter(trace::FuncId id) override
    {
        auto t0 = Clock::now();
        synth_.funcEnter(id);
        profile_.funcEnter(id);
        ns += nsSince(t0);
    }

    void
    funcExit(trace::FuncId id) override
    {
        auto t0 = Clock::now();
        synth_.funcExit(id);
        profile_.funcExit(id);
        ns += nsSince(t0);
    }

    void
    dataRef(HostAddr addr, std::uint32_t size, bool is_write) override
    {
        auto t0 = Clock::now();
        synth_.dataRef(addr, size, is_write);
        profile_.dataRef(addr, size, is_write);
        ns += nsSince(t0);
    }

    /** Deliver the synthesizer's buffered tail, timed. */
    void
    flush()
    {
        auto t0 = Clock::now();
        synth_.flush();
        ns += nsSince(t0);
    }

    std::uint64_t ns = 0;

  private:
    trace::Synthesizer &synth_;
    core::FuncProfile &profile_;
};

struct TracedProfileRep
{
    bool ok = false;
    double wall = 0;
    double consumer = 0; ///< synthesizer + function profile + host
    double host = 0;     ///< inside HostCore
    std::uint64_t ops = 0, scopes = 0, dataRefs = 0, insts = 0;
};

/**
 * runProfiledSimulation rebuilt from its public parts with timed
 * forwarders between the layers. Its host counters must equal the
 * untraced run's, which proves it is not a stale copy.
 */
TracedProfileRep
runTracedProfile(Ledger &ledger, DigestBook &book, const JobInst &ji)
{
    TracedProfileRep rep;
    ledger.attempt();
    try {
        core::RunConfig cfg = runConfig(ji);
        auto t0 = Clock::now();
        Machine m = buildMachine(ji);
        HostModel model(cfg);
        TimedSink sink(model.core);
        trace::Synthesizer synth(model.layout, sink, cfg.seed, 1.0);
        core::FuncProfile profile;
        TimedConsumer consumer(synth, profile);
        trace::Recorder recorder;
        recorder.addConsumer(&consumer);
        recorder.activate();
        sim::SimResult res = m.system->run();
        recorder.deactivate();
        consumer.flush();
        rep.wall = since(t0);

        rep.consumer = (double)consumer.ns * 1e-9;
        rep.host = (double)sink.ns * 1e-9;
        rep.ops = synth.opsEmitted();
        rep.scopes = recorder.enterCount();
        rep.dataRefs = recorder.dataCount();
        rep.insts = m.system->totalInsts();

        std::ostringstream stats;
        m.simulator->dumpStats(stats);
        book.stats(ledger, ji, stats.str());
        book.host(ledger, ji, model.core.counters());
        std::uint64_t expected = m.workload->expectedResult(ji.job.cores);
        rep.ok =
            ledger.check(res.cause == sim::ExitCause::Finished,
                         ji.label + ": traced exit " +
                             sim::exitCauseName(res.cause)) &&
            ledger.check(expected == 0 || m.system->result() == expected,
                         ji.label + ": traced guest checksum mismatch");
    } catch (const std::exception &e) {
        ledger.fail(ji.label + ": traced run: " + e.what());
    }
    return rep;
}

// ------------------------------------------------------------------
// Event-class to layer attribution (sim half)

enum Layer { LCpu, LCache, LXbar, LDram, LTlbWalk, LUnnamed, LOther, NLayers };

/**
 * Layer of an event class, by the owner of the serviced event:
 * cpuN.tick -> cpu; *.icache.*, *.dcache.*, l2.* -> caches; xbar.*,
 * dram.*, *tlbWalk -> their layers; the default name "event" ->
 * unnamed. Shares are inclusive: a cache response event that wakes
 * the CPU charges the CPU's work to the cache.
 */
Layer
layerOf(const std::string &name)
{
    auto has = [&](const char *s) {
        return name.find(s) != std::string::npos;
    };
    if (name == "event")
        return LUnnamed;
    if (has("tlbWalk"))
        return LTlbWalk;
    if (has(".icache.") || has(".dcache.") || has("l2."))
        return LCache;
    if (has("xbar."))
        return LXbar;
    if (has("dram."))
        return LDram;
    if (has("cpu") && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".tick") == 0)
        return LCpu;
    return LOther;
}

// ------------------------------------------------------------------
// Workload drivers

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool smoke = false;
    std::string rev = "unknown";
};

double
peakRssMiB()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0; // ru_maxrss is in KiB
}

/** Repeat @p rep until @p budget seconds have passed, at least
 *  @p min_reps times, keeping @p setup's rounds in step with the
 *  elapsed share of the budget; @p rep returns false to stop early. */
template <typename Fn>
void
repeatFor(double budget, std::size_t min_reps, SetupSampler &setup, Fn rep)
{
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < min_reps || since(t0) < budget; ++i) {
        if (!rep())
            return;
        setup.keepUp(since(t0) / budget);
    }
}

/** The end-to-end metrics of an untraced run, from its reps' ns/inst;
 *  no ns_per_inst when no timed rep succeeded. */
void
emitEndToEnd(Ledger &ledger, const std::vector<double> &ns_per_inst,
             const Setup &setup)
{
    Summary s = summarize(ns_per_inst);
    if (s.n)
        ledger.metric("ns_per_inst", s.min, "ns", &s);
    ledger.metric("setup_s", setup.total, "s");
    ledger.metric("peak_rss_mib", peakRssMiB(), "MiB");
}

void
emitSetup(Ledger &ledger, const Setup &s)
{
    ledger.metric("setup.workload_s", s.workload, "s");
    ledger.metric("setup.system_s", s.system, "s");
    ledger.metric("setup.host_model_s", s.hostModel, "s");
}

void
emitCounts(Ledger &ledger, const SimCounts &c)
{
    ledger.metric("sim.events_per_inst", ratio(c.events, c.insts),
                  "events/inst");
    ledger.metric("cpu.guest_ipc", ratio(c.insts, c.cycles),
                  "inst/cycle");
    ledger.metric("mem.l1d_miss_rate", ratio(c.l1dMisses, c.l1dAccesses),
                  "fraction");
    ledger.metric("mem.l2_miss_rate", ratio(c.l2Misses, c.l2Accesses),
                  "fraction");
    ledger.metric("mem.xbar_txn_per_kinst",
                  1000 * ratio(c.xbarTxns, c.insts), "txn/kinst");
    ledger.metric("mem.snoop_inval_per_kinst",
                  1000 * ratio(c.snoopInvals, c.insts), "inval/kinst");
    ledger.metric("mem.dram_reads_per_kinst",
                  1000 * ratio(c.dramReads, c.insts), "reads/kinst");
}

/** Sim-half traced shares; zero on workloads without that half. */
struct SimShares
{
    double loop = 0, unnamedEvents = 0, overhead = 0;
    double layer[NLayers] = {};
};

void
emitSimShares(Ledger &ledger, const SimShares &s)
{
    ledger.metric("sim.loop_share", s.loop, "fraction");
    ledger.metric("sim.unnamed_event_share", s.unnamedEvents, "fraction");
    ledger.metric("cpu.tick_share", s.layer[LCpu], "fraction");
    ledger.metric("mem.cache_share", s.layer[LCache], "fraction");
    ledger.metric("mem.xbar_share", s.layer[LXbar], "fraction");
    ledger.metric("mem.dram_share", s.layer[LDram], "fraction");
    ledger.metric("mem.tlb_walk_share", s.layer[LTlbWalk], "fraction");
    ledger.metric("trace_overhead.sim", s.overhead, "x");
}

/** Profile-half traced split; zero on workloads without it. */
struct ProfileShares
{
    double recorder = 0, synth = 0, host = 0;
    double synthNsPerOp = 0, hostNsPerOp = 0;
    double scopesPerInst = 0, dataRefsPerInst = 0, opsPerInst = 0;
    double overhead = 0;
    double idle = 0, contention = 0, makespanOverIdeal = 0;
};

void
emitProfileShares(Ledger &ledger, const ProfileShares &p)
{
    ledger.metric("trace.recorder_share", p.recorder, "fraction");
    ledger.metric("trace.scopes_per_inst", p.scopesPerInst, "scopes/inst");
    ledger.metric("trace.datarefs_per_inst", p.dataRefsPerInst,
                  "refs/inst");
    ledger.metric("trace.synth_ns_per_op", p.synthNsPerOp, "ns/op");
    ledger.metric("trace.synth_share", p.synth, "fraction");
    ledger.metric("host.ns_per_op", p.hostNsPerOp, "ns/op");
    ledger.metric("host.share", p.host, "fraction");
    ledger.metric("host.ops_per_inst", p.opsPerInst, "ops/inst");
    ledger.metric("parallel.idle_share", p.idle, "fraction");
    ledger.metric("parallel.contention", p.contention, "x");
    ledger.metric("parallel.makespan_over_ideal", p.makespanOverIdeal,
                  "x");
    ledger.metric("trace_overhead.profile", p.overhead, "x");
}

/**
 * Warm-up: one plain run per job. Sets each job's reference stats,
 * checks exit and checksum, and returns the summed counts plus each
 * job's reference run.
 */
std::vector<SimRep>
warmUp(Ledger &ledger, DigestBook &book, const std::vector<JobInst> &jobs,
       SimCounts &counts)
{
    std::vector<SimRep> refs;
    for (const JobInst &ji : jobs) {
        SimRep rep = runPlain(ledger, ji);
        book.stats(ledger, ji, rep.stats);
        counts.add(readCounts(rep.stats, rep.insts, rep.events, rep.ticks,
                              ji.job.cores));
        refs.push_back(std::move(rep));
    }
    return refs;
}

void
runSimWorkload(const Options &opt, Ledger &ledger, DigestBook &book,
               const std::vector<JobInst> &jobs)
{
    const JobInst &ji = jobs.front();
    SetupSampler setup(jobs, false);
    SimCounts counts;
    SimRep ref = std::move(warmUp(ledger, book, jobs, counts).front());
    if (!ref.ok)
        return;

    std::vector<double> ns_per_inst;
    auto timed_rep = [&] {
        SimRep rep = runPlain(ledger, ji);
        book.stats(ledger, ji, rep.stats);
        if (!rep.ok)
            return false;
        ns_per_inst.push_back(rep.wall * 1e9 / (double)rep.insts);
        return true;
    };

    if (!opt.trace) {
        repeatFor(opt.seconds, minReps, setup, timed_rep);
        emitEndToEnd(ledger, ns_per_inst, setup.fastest());
        return;
    }

    // Traced reps: the self-profiler in trace mode (two clock reads per
    // event), accumulated over reps. They alternate with plain reps so
    // that both see the same host noise.
    std::vector<double> traced_ns;
    double class_ns[NLayers] = {};
    double wall = 0, unnamed = 0, events = 0;
    std::map<std::string, double> by_class;
    auto traced_rep = [&] {
        sim::ProfilerConfig pc;
        pc.enabled = true;
        pc.traceSlices = true;
        pc.maxTraceSlices = 0;
        pc.maxCounterSamples = 0;
        sim::Profiler profiler(pc);
        SimRep rep = runPlain(ledger, ji, &profiler);
        book.stats(ledger, ji, rep.stats);
        if (!rep.ok)
            return false;
        traced_ns.push_back(rep.wall * 1e9 / (double)rep.insts);
        wall += rep.wall * 1e9;
        for (const sim::EventClassStats &cls : profiler.eventClasses()) {
            Layer l = layerOf(cls.name);
            class_ns[l] += cls.wallNs;
            by_class[cls.name] += cls.wallNs;
            events += (double)cls.count;
            if (l == LUnnamed)
                unnamed += (double)cls.count;
        }
        return true;
    };
    repeatFor(opt.seconds, 1, setup,
              [&] { return timed_rep() && traced_rep(); });
    double untraced = summarize(ns_per_inst).min;

    SimShares shares;
    double serviced = 0;
    for (int l = 0; l < NLayers; ++l) {
        shares.layer[l] = ratio(class_ns[l], wall);
        serviced += class_ns[l];
    }
    shares.loop = ratio(wall - serviced, wall);
    shares.unnamedEvents = ratio(unnamed, events);
    shares.overhead = ratio(summarize(traced_ns).min, untraced);

    std::vector<std::pair<double, std::string>> top;
    for (const auto &[name, ns] : by_class)
        top.push_back({ns, name});
    std::sort(top.rbegin(), top.rend());
    for (std::size_t i = 0; i < top.size() && i < 8; ++i)
        std::printf("event-class %-28s %5.1f%% of traced wall\n",
                    top[i].second.c_str(), 100 * ratio(top[i].first, wall));
    std::printf("traced: untraced %.1f ns/inst, traced %.1f ns/inst\n",
                untraced, summarize(traced_ns).min);

    emitSetup(ledger, setup.fastest());
    emitCounts(ledger, counts);
    emitSimShares(ledger, shares);
    emitProfileShares(ledger, ProfileShares{});
}

void
runProfileWorkload(const Options &opt, Ledger &ledger, DigestBook &book,
                   const std::vector<JobInst> &jobs)
{
    const JobInst &ji = jobs.front();
    core::RunConfig cfg = runConfig(ji);
    SetupSampler setup(jobs, true);
    SimCounts counts;
    SimRep ref = std::move(warmUp(ledger, book, jobs, counts).front());
    if (!ref.ok)
        return;

    std::vector<double> walls;
    double ops_per_inst = 0;
    auto untraced_rep = [&] {
        ledger.attempt();
        try {
            auto t0 = Clock::now();
            core::RunResult r = core::runProfiledSimulation(cfg);
            double wall = since(t0);
            book.host(ledger, ji, r.counters);
            if (!checkProfiled(ledger, ji, r, ref.insts))
                return false;
            walls.push_back(wall);
            ops_per_inst = ratio((double)r.hostInsts, (double)r.guestInsts);
            return true;
        } catch (const std::exception &e) {
            ledger.fail(ji.label + ": " + e.what());
            return false;
        }
    };

    if (!opt.trace) {
        repeatFor(opt.seconds, minReps, setup, untraced_rep);
        std::vector<double> ns;
        for (double w : walls)
            ns.push_back(w * 1e9 / (double)ref.insts);
        emitEndToEnd(ledger, ns, setup.fastest());
        return;
    }

    // The plain (recorder-off) cost of the same job, construction
    // included as in the traced wall below.
    std::vector<double> plain;
    for (int i = 0; i < 7; ++i) {
        auto t0 = Clock::now();
        SimRep rep = runPlain(ledger, ji);
        book.stats(ledger, ji, rep.stats);
        if (!rep.ok)
            return;
        plain.push_back(since(t0));
    }

    // Traced reps alternate with untraced ones so that both see the
    // same host noise. The split is read from the fastest traced rep,
    // as ns_per_inst is.
    TracedProfileRep best;
    auto traced_rep = [&] {
        TracedProfileRep rep = runTracedProfile(ledger, book, ji);
        if (!rep.ok)
            return false;
        if (!best.ok || rep.wall < best.wall)
            best = rep;
        return true;
    };
    repeatFor(opt.seconds * 5 / 6, 1, setup,
              [&] { return untraced_rep() && traced_rep(); });
    if (!best.ok)
        return;

    Setup s = setup.fastest();
    double total = best.wall;
    double t_plain = summarize(plain).min;
    double t_consumer = best.consumer;
    double t_host = best.host;
    double t_synth = t_consumer - t_host;
    // Recorder dispatch by difference; host-model construction is
    // inside the traced wall and measured by the setup rounds.
    double t_recorder = total - t_consumer - t_plain - s.hostModel;

    ProfileShares p;
    p.recorder = ratio(t_recorder, total);
    p.synth = ratio(t_synth, total);
    p.host = ratio(t_host, total);
    p.synthNsPerOp = ratio(t_synth * 1e9, (double)best.ops);
    p.hostNsPerOp = ratio(t_host * 1e9, (double)best.ops);
    p.scopesPerInst = ratio((double)best.scopes, (double)best.insts);
    p.dataRefsPerInst = ratio((double)best.dataRefs, (double)best.insts);
    p.opsPerInst = ops_per_inst;
    p.overhead = ratio(total, summarize(walls).min);

    std::printf("traced split: total %.4f s = plain sim %.4f + host-model "
                "setup %.4f + recorder %.4f + synthesizer %.4f + host "
                "%.4f\n",
                total, t_plain, s.hostModel, t_recorder, t_synth, t_host);
    // Layer times are measured separately, so the recorder remainder
    // must not go negative by more than the 5% closure tolerance.
    ledger.check(t_recorder > -0.05 * total,
                 ji.label + ": traced layers exceed the traced total");

    emitSetup(ledger, s);
    emitCounts(ledger, counts);
    emitSimShares(ledger, SimShares{});
    emitProfileShares(ledger, p);
}

void
runSweepWorkload(const Options &opt, Ledger &ledger, DigestBook &book,
                 const std::vector<JobInst> &jobs)
{
    std::vector<core::RunConfig> configs;
    for (const JobInst &ji : jobs)
        configs.push_back(runConfig(ji));
    SetupSampler setup(jobs, true);
    SimCounts counts;
    std::vector<SimRep> refs = warmUp(ledger, book, jobs, counts);
    double guest_insts = 0;
    for (const SimRep &r : refs) {
        if (!r.ok)
            return;
        guest_insts += (double)r.insts;
    }

    auto check_all = [&](const std::vector<core::RunResult> &results) {
        bool ok = true;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            ledger.attempt();
            book.host(ledger, jobs[i], results[i].counters);
            ok &= checkProfiled(ledger, jobs[i], results[i],
                                refs[i].insts);
        }
        return ok;
    };

    std::vector<double> makespans;
    double host_ops = 0;
    auto pooled_rep = [&] {
        try {
            auto t0 = Clock::now();
            std::vector<core::RunResult> results =
                core::runExperiments(configs, sweepWorkers);
            double makespan = since(t0);
            if (!check_all(results))
                return false;
            makespans.push_back(makespan);
            host_ops = 0;
            for (const core::RunResult &r : results)
                host_ops += (double)r.hostInsts;
            return true;
        } catch (const std::exception &e) {
            ledger.attempt();
            ledger.fail(std::string("sweep: ") + e.what());
            return false;
        }
    };

    if (!opt.trace) {
        repeatFor(opt.seconds, minReps, setup, pooled_rep);
        std::vector<double> ns;
        for (double m : makespans)
            ns.push_back(m * 1e9 / guest_insts);
        emitEndToEnd(ledger, ns, setup.fastest());
        return;
    }

    repeatFor(opt.seconds / 3, 1, setup, pooled_rep);
    if (makespans.empty())
        return;

    try {
        // Serial pass, each job timed.
        std::vector<core::RunResult> results(jobs.size());
        std::vector<double> serial(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            auto t0 = Clock::now();
            results[i] = core::runProfiledSimulation(configs[i]);
            serial[i] = since(t0);
        }
        if (!check_all(results))
            return;

        // Pooled pass with a start/end per job.
        std::vector<double> pooled(jobs.size());
        core::ParallelExecutor pool(sweepWorkers);
        auto t0 = Clock::now();
        pool.forEach(jobs.size(), [&](std::size_t i) {
            auto j0 = Clock::now();
            results[i] = core::runProfiledSimulation(configs[i]);
            pooled[i] = since(j0);
        });
        double makespan = since(t0);
        if (!check_all(results))
            return;

        double sum_serial = 0, sum_pooled = 0, longest = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            sum_serial += serial[i];
            sum_pooled += pooled[i];
            longest = std::max(longest, serial[i]);
            std::printf("sweep-job %-36s serial %.3f s, pooled %.3f s\n",
                        jobs[i].label.c_str(), serial[i], pooled[i]);
        }
        std::printf("sweep: makespan %.3f s, serial sum %.3f s, "
                    "speedup %.2fx on %u workers\n",
                    makespan, sum_serial, sum_serial / makespan,
                    sweepWorkers);

        ProfileShares p;
        p.opsPerInst = ratio(host_ops, guest_insts);
        p.idle = 1 - ratio(sum_pooled, sweepWorkers * makespan);
        p.contention = ratio(sum_pooled, sum_serial);
        p.makespanOverIdeal =
            ratio(makespan, std::max(longest, sum_serial / sweepWorkers));
        p.overhead = ratio(makespan, summarize(makespans).min);

        emitSetup(ledger, setup.fastest());
        emitCounts(ledger, counts);
        emitSimShares(ledger, SimShares{});
        emitProfileShares(ledger, p);
    } catch (const std::exception &e) {
        ledger.attempt();
        ledger.fail(std::string("sweep: ") + e.what());
    }
}

// ------------------------------------------------------------------
// Fingerprint and main

std::string
readFirstLine(const char *path, const char *prefix = "")
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(prefix, 0) == 0)
            return line;
    return "unknown";
}

std::string
cpuModel()
{
    std::string line = readFirstLine("/proc/cpuinfo", "model name");
    std::size_t colon = line.find(':');
    return colon == std::string::npos ? line : line.substr(colon + 2);
}

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perf_ledger: " << why << "\n"
              << "usage: perf_ledger --workload NAME --seed N "
                 "--seconds S [--trace 0|1] [--smoke] [--rev REV]\n"
              << "workloads:";
    for (const Workload &wl : workloadTable())
        std::cerr << ' ' << wl.name;
    std::cerr << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                opt.workload = value();
            else if (a == "--seed")
                opt.seed = std::stoull(value());
            else if (a == "--seconds")
                opt.seconds = std::stod(value());
            else if (a == "--trace")
                opt.trace = std::stoi(value()) != 0;
            else if (a == "--smoke")
                opt.smoke = true;
            else if (a == "--rev")
                opt.rev = value();
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0))
        usage("--seconds must be given and positive");
    return opt;
}

int
ledgerMain(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const Workload *wl = nullptr;
    for (const Workload &w : workloadTable())
        if (opt.workload == w.name)
            wl = &w;
    if (!wl)
        usage(("unknown workload " + opt.workload).c_str());

    std::string load_before = readFirstLine("/proc/loadavg");
    std::cout << "fingerprint nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
              << " cpu=\"" << cpuModel() << "\" compiler=\""
              << G5P_BENCH_COMPILER << "\" flags=\"" << G5P_BENCH_FLAGS
              << "\" rev=" << opt.rev << "\n"
              << "run workload=" << wl->name << " seed=" << opt.seed
              << " seconds=" << opt.seconds << " trace=" << opt.trace
              << " smoke=" << opt.smoke << "\n";

    std::vector<JobInst> jobs = instantiate(*wl, opt.seed, opt.smoke);
    Ledger ledger;
    DigestBook book(wl->name, opt.seed == 0);
    switch (wl->kind) {
      case Kind::Sim:
        runSimWorkload(opt, ledger, book, jobs);
        break;
      case Kind::Profile:
        runProfileWorkload(opt, ledger, book, jobs);
        break;
      case Kind::Sweep:
        runSweepWorkload(opt, ledger, book, jobs);
        break;
    }
    book.finish(ledger);

    std::cout << "fingerprint loadavg_before=\"" << load_before
              << "\" loadavg_after=\"" << readFirstLine("/proc/loadavg")
              << "\"\n";
    ledger.report();
    return ledger.correct() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return ledgerMain(argc, argv);
}
