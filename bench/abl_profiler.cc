/**
 * @file
 * Profiler-overhead ablation: the self-observability layer's contract
 * is that merely *compiling it in* is free. This bench drives the
 * event-loop microbench pattern (schedule/service churn, the hot path
 * beginService/endService sit on) through four configurations:
 *
 *   off       no profiler attached (one null-pointer test per event)
 *   disabled  profiler attached but disarmed (plus one bool test)
 *   batch     armed, one steady_clock read per 64 events
 *   trace     armed, two clock reads + one slice record per event
 *
 * All configurations drive one shared queue and event set, so heap
 * layout is identical across them and only the profiler state
 * differs. Interleaved repetitions with min-of-reps give the ns/op
 * table. The gate compares each disabled rep with the off rep run
 * right next to it and takes the median of those ratios: a shared
 * host changes speed over the run, and a ratio of two minima taken
 * at different moments mistakes that drift for profiler overhead.
 * Prints ns/op per configuration, writes BENCH_profiler.json, and
 * gates: disabled must be within 2% of off (the ctest
 * ProfilerOverheadGate runs exactly this binary).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "sim/eventq.hh"
#include "sim/profiler.hh"

using namespace g5p;
using sim::Event;
using sim::EventQueue;
using sim::Profiler;

namespace
{

class CountEvent : public Event
{
  public:
    explicit CountEvent(std::uint64_t &count) : count_(count) {}
    void process() override { ++count_; }

  private:
    std::uint64_t &count_;
};

enum class Mode { Off, Disabled, Batch, Trace };

constexpr int numEvents = 4096;
constexpr int rounds = 10;
constexpr std::uint64_t opsPerRep =
    (std::uint64_t)numEvents * rounds;
constexpr std::uint64_t seed = 0x9e11'0b5eULL;

/** One rep of the schedule/service pattern on @p eq; returns ns/op. */
double
runRep(Mode mode, EventQueue &eq, std::deque<CountEvent> &events)
{
    sim::ProfilerConfig pc;
    pc.enabled = true;
    if (mode == Mode::Trace)
        pc.traceSlices = true;
    Profiler prof(pc);
    if (mode != Mode::Off) {
        eq.setProfiler(&prof);
        if (mode != Mode::Disabled)
            prof.arm();
    }

    using clock = std::chrono::steady_clock;
    std::mt19937_64 rng(seed);
    auto start = clock::now();
    for (int r = 0; r < rounds; ++r) {
        Tick base = eq.curTick();
        for (auto &ev : events)
            eq.schedule(ev, base + 1 + rng() % 10000);
        eq.serviceUntil(maxTick - 1);
    }
    auto end = clock::now();

    if (prof.armed())
        prof.disarm();
    eq.setProfiler(nullptr);
    double ns = (double)std::chrono::duration_cast<
        std::chrono::nanoseconds>(end - start).count();
    return ns / (double)opsPerRep;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = "BENCH_profiler.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
        else if (arg == "--help") {
            std::printf("options: --json <path>\n");
            return 0;
        }
    }

    const struct { Mode mode; const char *name; } configs[] = {
        {Mode::Off, "off"},
        {Mode::Disabled, "disabled"},
        {Mode::Batch, "batch"},
        {Mode::Trace, "trace"},
    };
    constexpr int reps = 75;

    std::uint64_t count = 0;
    EventQueue eq;
    std::deque<CountEvent> events;
    for (int i = 0; i < numEvents; ++i)
        events.emplace_back(count);

    double best[4];
    std::fill(std::begin(best), std::end(best), 1e30);
    std::vector<double> disabled_vs_off;

    // Warm up the queue's storage, then interleave configurations so
    // frequency ramps and background noise hit all of them alike.
    // Odd reps run the configurations in reverse so neither side of
    // the off/disabled pair always goes first.
    for (const auto &cfg : configs)
        runRep(cfg.mode, eq, events);
    for (int rep = 0; rep < reps; ++rep) {
        double ns[4];
        for (int i = 0; i < 4; ++i) {
            int c = rep % 2 ? 3 - i : i;
            ns[c] = runRep(configs[c].mode, eq, events);
            best[c] = std::min(best[c], ns[c]);
        }
        disabled_vs_off.push_back(ns[1] / ns[0]);
    }

    std::printf("# abl_profiler: event-loop cost by profiler state "
                "(min of %d reps)\n", reps);
    std::printf("%-10s %12s %10s\n", "config", "ns/op", "vs off");
    for (int c = 0; c < 4; ++c)
        std::printf("%-10s %12.2f %9.3fx\n", configs[c].name,
                    best[c], best[c] / best[0]);

    auto mid = disabled_vs_off.begin() + disabled_vs_off.size() / 2;
    std::nth_element(disabled_vs_off.begin(), mid,
                     disabled_vs_off.end());
    double disabled_ratio = *mid;
    std::printf("disabled vs off, median of %d paired reps: %.3fx\n",
                reps, disabled_ratio);

    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"profiler\",\n  \"configs\": [\n";
    for (int c = 0; c < 4; ++c) {
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                      "\"ratio_vs_off\": %.4f}%s\n",
                      configs[c].name, best[c], best[c] / best[0],
                      c + 1 < 4 ? "," : "");
        json << buf;
    }
    json << "  ],\n";
    {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "  \"disabled_overhead_gate\": %.4f\n",
                      disabled_ratio);
        json << buf;
    }
    json << "}\n";
    if (!json) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());

    // The acceptance gate: compiled-in-but-disabled must cost <= 2%.
    if (disabled_ratio > 1.02) {
        std::printf("FAIL: disabled-profiler overhead %.3fx > "
                    "1.02x\n", disabled_ratio);
        return 1;
    }
    return 0;
}
