/**
 * @file
 * Ablation: worker-pool scaling of the parallel experiment harness.
 *
 * One fixed sweep of profiled runs, executed serially and on 2- and
 * 4-thread pools. Reports wall-clock speedup and verifies every
 * pooled result is byte-identical to its serial reference (doubles
 * compared as bit patterns) — the paper co-runs one gem5 process per
 * hardware thread (§II, 4.15x aggregate throughput at 40 processes),
 * and this harness reproduces that methodology in-process. Every
 * profiled run already overlaps its synthesizer and host model on
 * two threads (trace::PipelinedSink), so the serial reference uses
 * two threads and an N-job pool up to 2N.
 *
 * Writes BENCH_parallel.json. Gates: pooled results byte-identical,
 * and (only when the host has >= 4 hardware threads — scaling cannot
 * exist on fewer) >= 3x at 4 threads.
 */

#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel.hh"

using namespace g5p;
using namespace g5p::core;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return (double)std::chrono::duration_cast<
               std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
               .count() /
           1e9;
}

/** Every result field that matters, doubles as raw bit patterns. */
std::string
signatureOf(const RunResult &r)
{
    std::ostringstream os;
    auto bits = [&os](double v) {
        os << std::bit_cast<std::uint64_t>(v) << ',';
    };
    os << r.workload << '|' << r.platform << '|' << r.hostInsts
       << ',' << r.guestInsts << ',' << r.codeBytes << ','
       << r.simTicks << ',' << r.guestResult << ','
       << r.distinctFunctions << ',' << r.counters.insts << ','
       << r.counters.uops << ',' << r.counters.icacheMisses << ','
       << r.counters.dcacheMisses << ',' << r.counters.mispredicts
       << ',' << r.counters.llcMisses << '|';
    bits(r.hostSeconds);
    bits(r.ipc);
    bits(r.counters.baseCycles);
    bits(r.counters.beMemCycles);
    bits(r.topdown.retiring);
    bits(r.topdown.backendBound);
    bits(r.topdown.frontendLatency);
    return os.str();
}

/** The scaling sweep: all four models x two workloads. */
std::vector<RunConfig>
sweepConfigs(double scale)
{
    std::vector<RunConfig> configs;
    for (os::CpuModel model : os::allCpuModels) {
        for (const char *wl : {"water_nsquared", "blackscholes"}) {
            RunConfig cfg;
            cfg.workload = wl;
            cfg.workloadScale = scale;
            cfg.maxGuestInsts = 16000;
            cfg.cpuModel = model;
            cfg.platform = host::xeonConfig();
            configs.push_back(cfg);
        }
    }
    return configs;
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = 0.25;
    std::string json_path = "BENCH_parallel.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--scale" && i + 1 < argc)
            scale = std::atof(argv[++i]);
        else if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg == "--help") {
            std::printf("options: --scale <f> | --json <path>\n");
            return 0;
        }
    }

    const unsigned hw = ParallelExecutor::hardwareJobs();
    std::printf("# abl_parallel: worker-pool sweeps (%u hw thread%s)\n",
                hw, hw == 1 ? "" : "s");

    std::vector<RunConfig> configs = sweepConfigs(scale);

    auto t0 = std::chrono::steady_clock::now();
    std::vector<RunResult> serial = runExperiments(configs, 1);
    double serial_s = secondsSince(t0);

    std::vector<std::string> reference;
    for (const RunResult &r : serial)
        reference.push_back(signatureOf(r));

    bool identical = true;
    std::printf("\n%-28s %10s %10s %10s\n", "pool",
                "wall s", "speedup", "identical");
    std::printf("%-28s %10.3f %10s %10s\n", "serial (reference)",
                serial_s, "1.00x", "-");

    struct Point
    {
        unsigned jobs;
        double seconds;
        bool identical;
    };
    std::vector<Point> points;
    for (unsigned jobs : {2u, 4u}) {
        t0 = std::chrono::steady_clock::now();
        std::vector<RunResult> pooled = runExperiments(configs, jobs);
        double pooled_s = secondsSince(t0);
        bool same = pooled.size() == reference.size();
        for (std::size_t i = 0; same && i < pooled.size(); ++i)
            same = signatureOf(pooled[i]) == reference[i];
        identical = identical && same;
        points.push_back(Point{jobs, pooled_s, same});
        std::printf("%-28s %10.3f %9.2fx %10s\n",
                    (std::to_string(jobs) + " threads").c_str(),
                    pooled_s, serial_s / pooled_s,
                    same ? "yes" : "NO");
    }

    // ----------------------------------------------------------
    // Gates first (so the JSON can record their status), then JSON.
    // Every gate is recorded whether it applies or not: a gate that
    // cannot run on this host (the 3x/4-thread scaling gate needs
    // hardware to scale onto) is an explicit skip in the JSON and
    // the output, never a silent pass.
    // ----------------------------------------------------------
    struct Gate
    {
        const char *name;
        bool applies;
        bool passed;         // meaningful only when applies
        std::string detail;
    };
    std::vector<Gate> gates;

    char detail[160];
    gates.push_back({"pooled_identical", true, identical,
                     "pooled sweeps byte-equal to the serial "
                     "reference"});
    {
        bool applies = hw >= 4;
        double x4 = serial_s / points.back().seconds;
        if (applies)
            std::snprintf(detail, sizeof detail,
                          "4-thread speedup %.2fx (gate 3.0x)", x4);
        else
            std::snprintf(detail, sizeof detail,
                          "needs >= 4 hardware threads, host has %u "
                          "(speedup %.2fx reported only)", hw, x4);
        gates.push_back({"scaling_3x_at_4_threads", applies,
                         applies && x4 >= 3.0, detail});
    }

    bool ok = true;
    std::printf("\ngates:\n");
    for (const Gate &g : gates) {
        const char *status = !g.applies ? "SKIP"
                             : g.passed ? "pass"
                                        : "FAIL";
        std::printf("  %-32s %s  (%s)\n", g.name, status,
                    g.detail.c_str());
        if (g.applies && !g.passed)
            ok = false;
    }

    std::ofstream json(json_path);
    json << "{\n  \"hardware_threads\": " << hw << ",\n"
         << "  \"sweep_runs\": " << configs.size() << ",\n"
         << "  \"serial_seconds\": " << serial_s << ",\n"
         << "  \"scaling\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "    {\"jobs\": %u, \"seconds\": %.6f, "
                      "\"speedup\": %.3f, \"identical\": %s}%s\n",
                      points[i].jobs, points[i].seconds,
                      serial_s / points[i].seconds,
                      points[i].identical ? "true" : "false",
                      i + 1 < points.size() ? "," : "");
        json << buf;
    }
    json << "  ],\n"
         << "  \"gates\": [\n";
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        // Per-scenario style (BENCH_eventq.json): one object per
        // gate; a skipped gate says so instead of faking a pass.
        json << "    {\"name\": \"" << g.name << "\", \"applies\": "
             << (g.applies ? "true" : "false") << ", ";
        if (g.applies)
            json << "\"passed\": " << (g.passed ? "true" : "false");
        else
            json << "\"passed\": null, \"skipped_reason\": \""
                 << g.detail << "\"";
        json << ", \"detail\": \"" << g.detail << "\"}"
             << (i + 1 < gates.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    if (!json) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
    return ok ? 0 : 1;
}
