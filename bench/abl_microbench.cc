/**
 * @file
 * Google-benchmark microbenchmarks of the substrate components the
 * study rests on: the event queue (gem5's stable core, §VI), the
 * guest cache, the four guest CPU models' simulation rate, and the
 * host-model + synthesizer throughput. These quantify where *our*
 * simulator's time goes, mirroring the paper's methodology applied
 * to itself.
 */

#include <benchmark/benchmark.h>

#include "core/experiment.hh"
#include "host/host_core.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/physical.hh"
#include "os/system.hh"
#include "trace/synthesizer.hh"
#include "workloads/workload.hh"

using namespace g5p;

namespace
{

void
BM_EventQueueScheduleService(benchmark::State &state)
{
    sim::EventQueue eq;
    int fired = 0;
    sim::EventFunctionWrapper ev([&] { ++fired; }, "bench");
    Tick when = 1;
    for (auto _ : state) {
        eq.schedule(ev, when);
        eq.serviceOne();
        ++when;
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueScheduleService);

void
BM_EventQueueDepth(benchmark::State &state)
{
    // Scheduling cost as a function of queue depth.
    auto depth = (std::size_t)state.range(0);
    sim::EventQueue eq;
    std::vector<std::unique_ptr<sim::EventFunctionWrapper>> events;
    for (std::size_t i = 0; i < depth; ++i) {
        events.push_back(std::make_unique<sim::EventFunctionWrapper>(
            [] {}, "filler"));
        eq.schedule(*events.back(), 1000000 + i);
    }
    sim::EventFunctionWrapper probe([] {}, "probe");
    Tick when = 1;
    for (auto _ : state) {
        eq.schedule(probe, when);
        eq.deschedule(probe);
        benchmark::DoNotOptimize(eq.nextTick());
        ++when;
    }
    state.SetItemsProcessed(state.iterations());
    for (auto &ev : events)
        eq.deschedule(*ev);
}
BENCHMARK(BM_EventQueueDepth)->Arg(16)->Arg(256)->Arg(4096);

void
BM_GuestCacheAtomicAccess(benchmark::State &state)
{
    sim::Simulator sim("bench");
    sim::ClockDomain clock = sim::ClockDomain::fromMHz(2000);
    mem::PhysicalMemory physmem(sim, "physmem", 1 << 20);
    mem::DramCtrl dram(sim, "dram", clock, physmem,
                       mem::DramParams{});
    mem::Cache cache(sim, "l1", clock,
                     mem::CacheParams{32 * 1024, 8, 1, 1, 1, 8,
                                      true});
    cache.memSidePort().bind(dram.port());
    sim.run(0);

    Rng rng(7);
    for (auto _ : state) {
        mem::Packet pkt(mem::MemCmd::ReadReq,
                        rng.below(256 * 1024) & ~7ull, 8);
        benchmark::DoNotOptimize(
            cache.cpuSidePort().recvAtomic(pkt));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuestCacheAtomicAccess);

void
BM_GuestSimulationRate(benchmark::State &state)
{
    // Guest instructions per host second for each CPU model: the
    // Atomic/Timing/Minor/O3 cost hierarchy of mg5 itself.
    auto model = (os::CpuModel)state.range(0);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        sim::Simulator sim("bench");
        auto wl = workloads::Registry::instance().create("sieve",
                                                         0.05);
        os::SystemConfig cfg;
        cfg.cpuModel = model;
        os::System system(sim, cfg, *wl);
        system.run();
        insts += system.totalInsts();
    }
    state.SetItemsProcessed((std::int64_t)insts);
    state.SetLabel(os::cpuModelName(model));
}
BENCHMARK(BM_GuestSimulationRate)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

void
BM_HostCacheAccess(benchmark::State &state)
{
    host::HostCache cache({32 * 1024, 8, 64});
    Rng rng(11);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.access(rng.below(1 << 20)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostCacheAccess);

void
BM_HostModelThroughput(benchmark::State &state)
{
    // Ops/second through the whole host pipeline model: this bounds
    // how fast profiled simulations can run.
    auto platform = host::xeonConfig();
    host::PageSizePolicy policy(platform.pageBits);
    host::HostCore core(platform, policy);
    Rng rng(13);
    trace::HostOp op;
    for (auto _ : state) {
        op.pc = 0x40'0000 + (rng.below(1 << 21) & ~3ull);
        op.kind = rng.chance(0.3) ? trace::HostOp::Kind::Load
                                  : trace::HostOp::Kind::Alu;
        op.dataAddr = 0x2000'0000 + rng.below(1 << 22);
        op.dataSize = 8;
        core.op(op);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostModelThroughput);

void
BM_SynthesizerExpansion(benchmark::State &state)
{
    // Host instructions generated per recorded scope.
    class NullSink : public trace::HostInstSink
    {
      public:
        void op(const trace::HostOp &) override {}
    } sink;

    auto &reg = trace::FuncRegistry::instance();
    trace::FuncId fid =
        reg.lookup("bench::scope", trace::FuncKind::CpuDetailed);
    trace::CodeLayout layout(reg);
    trace::Synthesizer synth(layout, sink, 17);

    for (auto _ : state) {
        synth.funcEnter(fid);
        synth.dataRef(0x2000'0000, 8, false);
        synth.funcExit(fid);
    }
    state.SetItemsProcessed((std::int64_t)synth.opsEmitted());
}
BENCHMARK(BM_SynthesizerExpansion);

} // namespace

BENCHMARK_MAIN();
