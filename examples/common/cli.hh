/**
 * @file
 * Shared command-line parsing for the mg5 examples. Every example
 * accepts the same positionals ([workload] ([cpu-model]) [scale])
 * and the same observability / run-control flags, assembled into a
 * sim::ProfilerConfig (the --profile* and --metrics flags) and a
 * sim::RunOptions (the rest):
 *
 *   --profile=<trace.json>     self-profile the run, write a Chrome
 *                              trace (open in Perfetto)
 *   --profile-batch=<n>        clock read granularity in batch mode
 *   --metrics=<out.jsonl>      live JSONL metrics stream (tail -f)
 *   --cpu=<model>              atomic|timing|minor|o3
 *   --watchdog-events=<n>      supervise: livelock threshold
 *   --max-wall-seconds=<s>     supervise: wall-clock budget
 *   --auto-checkpoint=<ticks>  periodic crash-safe checkpoints
 *   --auto-checkpoint-prefix=<p>
 *   --fault-seed=<n>           seed injected memory faults
 *   --jobs=<n>                 worker threads for multi-run sweeps
 *                              (0 = all hardware threads); results
 *                              are byte-identical to --jobs=1
 *   --cores=<n>                guest CPU cores behind the coherent
 *                              xbar (1..16); multi-threaded
 *                              workloads fan out over them
 *   --fast-forward=<insts>     run the first N guest instructions on
 *                              Atomic, then drain-and-switch to the
 *                              detailed model
 *   --switch-cpu=<model>       the model to switch into at the
 *                              fast-forward boundary (defaults to
 *                              --cpu / the positional model)
 *   --sample=<K,W[,seed]>      SimPoint-style sampling: estimate the
 *                              whole run from K detailed intervals of
 *                              W instructions (checkpoint farm +
 *                              parallel detail via --jobs); not with
 *                              --profile, --profile-batch or
 *                              --metrics
 *   --sample-warmup=<insts>    detailed instructions run before each
 *                              measured window to re-warm the branch
 *                              predictor and pipeline state the
 *                              Atomic fast-forward does not model
 *   --help
 *
 * Example-specific value flags (e.g. profile_simulation's
 * --checkpoint) are declared in CliSpec::extraFlags and surfaced in
 * CliOptions::extra. Flags accept both --flag=value and --flag value.
 */

#ifndef G5P_EXAMPLES_COMMON_CLI_HH
#define G5P_EXAMPLES_COMMON_CLI_HH

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "base/sim_error.hh"
#include "os/system.hh"
#include "sim/profiler.hh"
#include "sim/run_options.hh"

namespace g5p::examples
{

/** What an example accepts beyond the shared surface. */
struct CliSpec
{
    /** Positional synopsis for --help, e.g. "[workload] [scale]". */
    std::string usage = "[workload] [scale]";

    /** Second positional is a CPU model (profile_simulation). */
    bool cpuModelPositional = false;

    std::string defaultWorkload = "water_nsquared";
    os::CpuModel defaultCpuModel = os::CpuModel::O3;
    double defaultScale = 0.25;

    /** Example-specific flags that take a value (with leading --). */
    std::vector<std::string> extraFlags;
};

/** Parsed command line. */
struct CliOptions
{
    std::string workload;
    os::CpuModel cpuModel = os::CpuModel::O3;
    double scale = 0.25;

    /** Run-control knobs assembled from the shared flags; hand it to
     *  Simulator::configure / System::run / RunConfig. */
    sim::RunOptions run;

    /** Self-profiler knobs from --profile, --profile-batch and
     *  --metrics; enabled when profiling was asked for. An example
     *  builds a sim::Profiler from it and attaches it to its runs. */
    sim::ProfilerConfig profiler;

    /** Worker threads for examples that sweep over several runs
     *  (core::runExperiments); 1 = serial, 0 = hardware threads. */
    unsigned jobs = 1;

    /** Guest CPU cores (SystemConfig::numCpus / RunConfig::guestCpus);
     *  multi-threaded workloads spread across them via the guest
     *  threading shim. */
    unsigned cores = 1;

    /** Atomic fast-forward length before the drain-and-switch
     *  (RunConfig::fastForwardInsts); 0 = no fast-forward. */
    std::uint64_t fastForwardInsts = 0;

    /** Post-boundary model from --switch-cpu; when given it becomes
     *  the detailed model (cpuModel) and implies fast-forwarding. */
    bool switchCpuGiven = false;
    os::CpuModel switchCpu = os::CpuModel::O3;

    /** @{ Interval sampling from --sample=K,W[,seed]; K == 0 means
     *  a plain (unsampled) run. */
    unsigned sampleK = 0;
    std::uint64_t sampleW = 0;
    std::uint64_t sampleSeed = 1;
    std::uint64_t sampleWarmup = 0;
    /** @} */

    bool sampling() const { return sampleK > 0; }

    /** Where to write the Chrome trace (--profile); "" = no trace. */
    std::string profilePath;

    /** Values of CliSpec::extraFlags, keyed by flag name. */
    std::map<std::string, std::string> extra;

    bool profiling() const { return profiler.enabled; }
};

inline os::CpuModel
parseCpuModel(const std::string &name)
{
    if (name == "atomic")
        return os::CpuModel::Atomic;
    if (name == "timing")
        return os::CpuModel::Timing;
    if (name == "minor")
        return os::CpuModel::Minor;
    if (name == "o3")
        return os::CpuModel::O3;
    g5p_throw(ConfigError, "cli", 0,
              "unknown CPU model '%s' (use atomic|timing|minor|o3)",
              name.c_str());
}

inline void
printCliUsage(std::ostream &os, const char *argv0,
              const CliSpec &spec)
{
    os << "usage: " << argv0 << " " << spec.usage << " [flags]\n"
       << "flags:\n"
          "  --profile=<trace.json>       self-profile, write a "
          "Chrome trace\n"
          "  --profile-batch=<n>          events per clock read "
          "(batch mode)\n"
          "  --metrics=<out.jsonl>        live JSONL metrics stream\n"
          "  --cpu=<atomic|timing|minor|o3>\n"
          "  --watchdog-events=<n>        livelock watchdog "
          "threshold\n"
          "  --max-wall-seconds=<s>       wall-clock budget "
          "(supervised)\n"
          "  --auto-checkpoint=<ticks>    periodic checkpoint "
          "period\n"
          "  --auto-checkpoint-prefix=<p> checkpoint path prefix\n"
          "  --fault-seed=<n>             seed injected memory "
          "faults\n"
          "  --jobs=<n>                   worker threads for sweep "
          "examples (0 = all)\n"
          "  --cores=<n>                  guest CPU cores (coherent "
          "multi-core, 1..16)\n"
          "  --fast-forward=<insts>       Atomic to the boundary, "
          "then switch to the detailed model\n"
          "  --switch-cpu=<model>         model to switch into at "
          "the boundary\n"
          "  --sample=<K,W[,seed]>        estimate the run from K "
          "detailed W-inst intervals\n"
          "  --sample-warmup=<insts>      detailed warmup before "
          "each measured window\n"
          "  --help\n";
    for (const auto &flag : spec.extraFlags)
        os << "  " << flag << " <value>\n";
}

/**
 * Parse @p argv against @p spec. Exits 0 on --help; throws
 * ConfigError (mapped to exit 1 by runGuarded) on bad input.
 */
inline CliOptions
parseCli(int argc, char **argv, const CliSpec &spec = {})
{
    CliOptions opts;
    std::vector<std::string> pos;
    bool cpu_flag_given = false;
    const char *profiler_flag = nullptr; // last profiling flag seen

    auto is_extra = [&](const std::string &flag) {
        return std::find(spec.extraFlags.begin(),
                         spec.extraFlags.end(),
                         flag) != spec.extraFlags.end();
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            pos.push_back(arg);
            continue;
        }

        std::string flag = arg, value;
        bool has_value = false;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            flag = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            has_value = true;
        }

        if (flag == "--help") {
            printCliUsage(std::cout, argv[0], spec);
            std::exit(0);
        }

        // Every remaining flag takes a value.
        if (!has_value) {
            if (i + 1 >= argc)
                g5p_throw(ConfigError, "cli", 0,
                          "flag '%s' needs a value", flag.c_str());
            value = argv[++i];
        }

        if (flag == "--profile") {
            opts.profiler.enabled = true;
            opts.profiler.traceSlices = true;
            opts.profilePath = value;
            profiler_flag = "--profile";
        } else if (flag == "--profile-batch") {
            opts.profiler.batchEvents =
                (std::uint32_t)std::strtoul(value.c_str(), nullptr,
                                            0);
            profiler_flag = "--profile-batch";
        } else if (flag == "--metrics") {
            opts.profiler.enabled = true;
            opts.profiler.metricsPath = value;
            profiler_flag = "--metrics";
        } else if (flag == "--cpu") {
            opts.cpuModel = parseCpuModel(value);
            cpu_flag_given = true;
        } else if (flag == "--watchdog-events") {
            opts.run.supervise = true;
            opts.run.watchdog.livelockEvents =
                std::strtoull(value.c_str(), nullptr, 0);
        } else if (flag == "--max-wall-seconds") {
            opts.run.supervise = true;
            opts.run.watchdog.maxWallSeconds =
                std::atof(value.c_str());
        } else if (flag == "--auto-checkpoint") {
            opts.run.autoCheckpointPeriod =
                std::strtoull(value.c_str(), nullptr, 0);
        } else if (flag == "--auto-checkpoint-prefix") {
            opts.run.autoCheckpointPrefix = value;
        } else if (flag == "--fault-seed") {
            opts.run.faultSeed =
                std::strtoull(value.c_str(), nullptr, 0);
        } else if (flag == "--jobs") {
            opts.jobs =
                (unsigned)std::strtoul(value.c_str(), nullptr, 0);
        } else if (flag == "--cores") {
            opts.cores =
                (unsigned)std::strtoul(value.c_str(), nullptr, 0);
            if (opts.cores < 1 || opts.cores > 16)
                g5p_throw(ConfigError, "cli", 0,
                          "--cores must be in 1..16, got '%s'",
                          value.c_str());
        } else if (flag == "--fast-forward") {
            opts.fastForwardInsts =
                std::strtoull(value.c_str(), nullptr, 0);
        } else if (flag == "--switch-cpu") {
            opts.switchCpu = parseCpuModel(value);
            opts.switchCpuGiven = true;
        } else if (flag == "--sample") {
            // K,W[,seed]
            char *end = nullptr;
            opts.sampleK =
                (unsigned)std::strtoul(value.c_str(), &end, 0);
            if (!end || *end != ',')
                g5p_throw(ConfigError, "cli", 0,
                          "--sample needs K,W[,seed], got '%s'",
                          value.c_str());
            opts.sampleW = std::strtoull(end + 1, &end, 0);
            if (end && *end == ',')
                opts.sampleSeed = std::strtoull(end + 1, nullptr, 0);
            if (opts.sampleK == 0 || opts.sampleW == 0)
                g5p_throw(ConfigError, "cli", 0,
                          "--sample needs K >= 1 and W >= 1");
        } else if (flag == "--sample-warmup") {
            opts.sampleWarmup =
                std::strtoull(value.c_str(), nullptr, 0);
        } else if (is_extra(flag)) {
            opts.extra[flag] = value;
        } else {
            g5p_throw(ConfigError, "cli", 0,
                      "unknown flag '%s' (try --help)", flag.c_str());
        }
    }

    opts.workload = !pos.empty() ? pos[0] : spec.defaultWorkload;
    std::size_t scale_at = 1;
    if (!cpu_flag_given)
        opts.cpuModel = spec.defaultCpuModel;
    if (spec.cpuModelPositional) {
        if (pos.size() > 1 && !cpu_flag_given)
            opts.cpuModel = parseCpuModel(pos[1]);
        scale_at = 2;
    }
    opts.scale = pos.size() > scale_at
                     ? std::atof(pos[scale_at].c_str())
                     : spec.defaultScale;
    if (pos.size() > scale_at + 1)
        g5p_throw(ConfigError, "cli", 0,
                  "unexpected argument '%s' (usage: %s)",
                  pos[scale_at + 1].c_str(), spec.usage.c_str());
    // A sampled run builds many machines, possibly on the worker
    // pool, and one sim::Profiler cannot observe pooled runs
    // (core/parallel.hh): refuse rather than write no trace.
    if (opts.sampling() && profiler_flag)
        g5p_throw(ConfigError, "cli", 0,
                  "--sample cannot be combined with %s: a sampled run "
                  "builds many machines and has no single profiler",
                  profiler_flag);
    if (opts.switchCpuGiven) {
        if (opts.fastForwardInsts == 0)
            g5p_throw(ConfigError, "cli", 0,
                      "--switch-cpu needs --fast-forward=<insts> "
                      "to place the boundary");
        // The switch target is the detailed (post-boundary) model.
        opts.cpuModel = opts.switchCpu;
    }
    return opts;
}

} // namespace g5p::examples

#endif // G5P_EXAMPLES_COMMON_CLI_HH
