#include "core/experiment.hh"

#include "base/logging.hh"
#include "mem/packet_pool.hh"
#include "trace/code_layout.hh"
#include "trace/pipelined_sink.hh"
#include "trace/synthesizer.hh"

namespace g5p::core
{

namespace
{

/**
 * -O3 text shrink: dead cold code is eliminated, so the *padded*
 * text span contracts (executed bytes are unchanged — the same
 * instructions run, just packed into fewer pages).
 */
constexpr double o3PaddingScale = 0.85;

/**
 * -freorder-functions-style hot/cold splitting plus an explicit
 * order file roughly halves the touched-line footprint of hot text
 * (cold halves of split functions land in .text.unlikely pages the
 * run never fetches).
 */
constexpr double hotLayoutPaddingScale = 0.55;

/** Dynamic-instruction multiplier for -O3 builds. */
constexpr double o3WorkScale = 0.995;

/**
 * Fraction of 2MB code chunks THP actually promotes: iodlr remaps
 * the hot text but leaves tails, cold sections, and unaligned edges
 * on base pages (the paper's ~63% iTLB-overhead reduction implies
 * partial coverage).
 */
constexpr double thpCoverage = 0.55;

} // namespace

host::HostPlatformConfig
effectivePlatform(const RunConfig &config)
{
    host::HostPlatformConfig platform =
        host::applyCorun(config.platform, config.corun);
    if (config.tuning.freqGHzOverride > 0)
        platform.freqGHz = config.tuning.freqGHzOverride;
    return platform;
}

RunResult
runProfiledSimulation(const RunConfig &config)
{
    RunResult result;
    result.workload = config.workload;
    result.platform = config.platform.name;
    result.cpuModel = config.cpuModel;
    result.mode = config.mode;

    // --- Guest machine (mg5) ---------------------------------------
    sim::Simulator simulator("system");
    auto workload = workloads::Registry::instance().create(
        config.workload, config.workloadScale);

    bool fast_forward = config.fastForwardInsts > 0 &&
                        config.cpuModel != os::CpuModel::Atomic;

    os::SystemConfig sys_cfg;
    sys_cfg.cpuModel = fast_forward ? os::CpuModel::Atomic
                                    : config.cpuModel;
    sys_cfg.mode = config.mode;
    sys_cfg.numCpus = config.guestCpus;
    sys_cfg.maxInstsPerCpu = config.maxGuestInsts;
    os::System system(simulator, sys_cfg, *workload);

    // --- Host model ------------------------------------------------
    host::HostPlatformConfig platform = effectivePlatform(config);

    trace::LayoutOptions layout_opts;
    layout_opts.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
    if (config.tuning.optO3) {
        layout_opts.paddingFactor *= o3PaddingScale;
        // A different code layout entirely: -O3 relinks the binary,
        // changing which functions conflict in the i-cache.
        layout_opts.seed ^= 0x4f33;
    }
    if (config.tuning.hotLayout) {
        // Hot/cold splitting evicts asserts, throw paths and trace
        // slow paths from the fall-through text, and the order file
        // packs what remains — a much bigger densification than -O3's
        // code shrink, and a relink besides.
        layout_opts.paddingFactor *= hotLayoutPaddingScale;
        layout_opts.seed ^= 0x484f54;
    }
    trace::CodeLayout layout(trace::FuncRegistry::instance(),
                             layout_opts);

    host::PageSizePolicy policy(platform.pageBits);
    if (config.tuning.hugePages != HugePageMode::None) {
        // Huge pages can only back the code segment region.
        double coverage = config.tuning.hugePages == HugePageMode::Ehp
                              ? 1.0
                              : thpCoverage;
        policy.addHugeRegion(layout_opts.codeBase,
                             layout_opts.codeBase + (64ull << 20),
                             coverage);
    }

    host::HostCore core(platform, policy);
    // The host model consumes the synthesized stream on the stage's
    // worker thread while the simulation runs here. Declared between
    // the two so that, on unwinding, the synthesizer flushes into a
    // live stage and the stage joins its worker before the core goes.
    trace::PipelinedSink pipe(core);
    trace::Synthesizer synth(layout, pipe, config.seed,
                             config.tuning.optO3 ? o3WorkScale : 1.0);

    trace::Recorder recorder;
    recorder.addConsumer(&synth);
    recorder.activate();

    simulator.configure(config.run);
    if (config.profiler) {
        simulator.attachProfiler(*config.profiler);
        config.profiler->beginSpan(config.workload + " on " +
                                   platform.name + "/" +
                                   os::cpuModelName(config.cpuModel));
    }

    // Per-run packet-pool peak (the pool itself is thread-local and
    // outlives runs).
    mem::PacketPool::resetHighWater();

    sim::SimResult sim_result;
    if (fast_forward) {
        // Atomic to the boundary, then drain-and-switch to the
        // detailed model for the remainder. Milestones are per-CPU,
        // so the boundary is defined as *cpu0's* committed-inst
        // count on every core count: cpu0 runs the workload's main
        // thread (workers park in the threading shim until spawned),
        // which keeps the boundary deterministic and meaningful on
        // multi-core guests too.
        system.cpu(0).setInstMilestone(
            config.fastForwardInsts, [&simulator] {
                simulator.exitSimLoop("fast-forward boundary",
                                      sim::ExitCause::User);
            });
        sim_result = system.run();
        if (sim_result.cause == sim::ExitCause::User) {
            // A false return means the workload finished during the
            // drain; the follow-up run() then surfaces the final
            // tick without perturbing anything.
            system.switchCpu(config.cpuModel);
            sim_result = system.run();
        }
    } else {
        sim_result = system.run();
    }
    recorder.deactivate();
    // Deliver the buffered tail and wait for the host model to take
    // it before reading core counters.
    synth.flush();
    pipe.drain();

    if (config.profiler)
        config.profiler->endSpan();

    // --- Collect ---------------------------------------------------
    result.exitCause = sim_result.cause;
    result.exitMessage = sim_result.message;
    result.counters = core.counters();
    result.topdown = core.topdown();
    result.hostSeconds = core.seconds(config.tuning.turbo);
    result.ipc = result.counters.ipc();
    result.hostInsts = result.counters.insts;
    result.codeBytes = layout.totalCodeBytes();

    result.guestInsts = system.totalInsts();
    result.simTicks = sim_result.tick;
    result.guestResult = system.result();
    std::uint64_t expected =
        workload->expectedResult(config.guestCpus);
    result.resultChecked = expected != 0 && config.maxGuestInsts == 0;
    result.resultOk =
        !result.resultChecked || result.guestResult == expected;
    if (result.resultChecked && !result.resultOk) {
        g5p_warn("%s on %s: guest checksum mismatch "
                 "(got %llx, want %llx)",
                 config.workload.c_str(),
                 os::cpuModelName(config.cpuModel),
                 (unsigned long long)result.guestResult,
                 (unsigned long long)expected);
    }

    // Memory-path health, from the plain accessors (not stats).
    result.packetPoolHighWater = mem::PacketPool::highWater();
    result.packetPoolSlabs = mem::PacketPool::slabsAllocated();
    {
        auto &xb = system.xbar();
        result.snoopFilterLines = xb.filterSize();
        result.snoopFilterCapacity = xb.filterCapacity();
        result.snoopFilterAvgProbe =
            xb.filterProbes()
                ? 1.0 + (double)xb.filterProbeSteps() /
                            (double)xb.filterProbes()
                : 0.0;
        std::uint64_t probes = system.l2().mshrIndexProbes();
        std::uint64_t steps = system.l2().mshrIndexProbeSteps();
        for (unsigned i = 0; i < system.numCpus(); ++i) {
            probes += system.l1i(i).mshrIndexProbes() +
                      system.l1d(i).mshrIndexProbes();
            steps += system.l1i(i).mshrIndexProbeSteps() +
                     system.l1d(i).mshrIndexProbeSteps();
        }
        result.mshrIndexProbes = probes;
        result.mshrIndexAvgProbe =
            probes ? 1.0 + (double)steps / (double)probes : 0.0;
    }

    result.functionProfile = hostProfileFromSelfOps(synth.selfOps());
    // All functions with self time, including the synthetic callees
    // each instrumented scope expands to (what a VTune function
    // profile of the whole binary would count).
    result.distinctFunctions = result.functionProfile.rows.size();
    return result;
}

RunResult
runSpecReference(const workloads::SpecStreamConfig &stream,
                 const host::HostPlatformConfig &platform,
                 std::uint64_t seed)
{
    RunResult result;
    result.workload = stream.name;
    result.platform = platform.name;

    host::PageSizePolicy policy(platform.pageBits);
    host::HostCore core(platform, policy);
    workloads::SpecStreamGenerator generator(stream, seed);
    generator.run(core);

    result.counters = core.counters();
    result.topdown = core.topdown();
    result.hostSeconds = core.seconds();
    result.ipc = result.counters.ipc();
    result.hostInsts = result.counters.insts;
    return result;
}

} // namespace g5p::core
