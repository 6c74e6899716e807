/**
 * @file
 * Tests for the trace/coupling layer: function registry, recorder
 * dispatch, code layout determinism, and the synthesizer's stream
 * invariants.
 */

#include <gtest/gtest.h>

#include "trace/code_layout.hh"
#include "trace/recorder.hh"
#include "trace/synthesizer.hh"

using namespace g5p;
using namespace g5p::trace;

namespace
{

/** Records raw callbacks for assertions. */
class CapturingConsumer : public TraceConsumer
{
  public:
    std::vector<std::pair<char, FuncId>> scopeEvents;
    std::vector<HostAddr> dataAddrs;

    void funcEnter(FuncId id) override
    { scopeEvents.push_back({'>', id}); }
    void funcExit(FuncId id) override
    { scopeEvents.push_back({'<', id}); }
    void dataRef(HostAddr addr, std::uint32_t, bool) override
    { dataAddrs.push_back(addr); }
};

/** Counts ops and validates stream invariants. */
class CheckingSink : public HostInstSink
{
  public:
    std::uint64_t ops = 0;
    std::uint64_t branches = 0;
    std::uint64_t calls = 0;
    std::uint64_t returns = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    bool sawBadBranch = false;

    void
    op(const HostOp &op) override
    {
        ++ops;
        switch (op.kind) {
          case HostOp::Kind::Branch:
            ++branches;
            if (op.isCall)
                ++calls;
            if (op.isReturn)
                ++returns;
            if (op.taken && op.target == 0 && !op.isReturn)
                sawBadBranch = true;
            break;
          case HostOp::Kind::Load:
            ++loads;
            break;
          case HostOp::Kind::Store:
            ++stores;
            break;
          default:
            break;
        }
    }
};

} // namespace

TEST(FuncRegistry, LookupIsIdempotent)
{
    auto &reg = FuncRegistry::instance();
    FuncId a = reg.lookup("Test::f1", FuncKind::Util);
    FuncId b = reg.lookup("Test::f1", FuncKind::Util);
    EXPECT_EQ(a, b);
    EXPECT_EQ(reg.info(a).name, "Test::f1");
    EXPECT_EQ(reg.info(a).kind, FuncKind::Util);
}

TEST(FuncRegistry, KeyedSpecializationsAreDistinct)
{
    auto &reg = FuncRegistry::instance();
    FuncId a = reg.lookupKeyed("Test::exec", FuncKind::InstExecute, 1);
    FuncId b = reg.lookupKeyed("Test::exec", FuncKind::InstExecute, 2);
    FuncId a2 =
        reg.lookupKeyed("Test::exec", FuncKind::InstExecute, 1);
    EXPECT_NE(a, b);
    EXPECT_EQ(a, a2);
}

TEST(FuncRegistry, KindNamesComplete)
{
    for (unsigned k = 0; k < (unsigned)FuncKind::NumKinds; ++k)
        EXPECT_STRNE(funcKindName((FuncKind)k), "Unknown");
}

TEST(Recorder, DispatchesToConsumers)
{
    auto &reg = FuncRegistry::instance();
    FuncId f = reg.lookup("Test::dispatch", FuncKind::Util);

    CapturingConsumer consumer;
    Recorder rec;
    rec.addConsumer(&consumer);
    rec.activate();
    {
        ScopeGuard guard(f);
        recordData(0x1234, 8, true);
    }
    rec.deactivate();

    ASSERT_EQ(consumer.scopeEvents.size(), 2u);
    EXPECT_EQ(consumer.scopeEvents[0], std::make_pair('>', f));
    EXPECT_EQ(consumer.scopeEvents[1], std::make_pair('<', f));
    ASSERT_EQ(consumer.dataAddrs.size(), 1u);
    EXPECT_EQ(consumer.dataAddrs[0], 0x1234u);
}

TEST(Recorder, InactiveRecorderSeesNothing)
{
    auto &reg = FuncRegistry::instance();
    FuncId f = reg.lookup("Test::inactive", FuncKind::Util);

    CapturingConsumer consumer;
    Recorder rec;
    rec.addConsumer(&consumer);
    // never activated
    {
        ScopeGuard guard(f);
        recordData(0x1, 8, false);
    }
    EXPECT_TRUE(consumer.scopeEvents.empty());
    EXPECT_TRUE(consumer.dataAddrs.empty());
}

TEST(Recorder, HeapAllocCyclesArena)
{
    CapturingConsumer consumer;
    Recorder rec;
    rec.addConsumer(&consumer);
    rec.activate();
    for (int i = 0; i < 100; ++i)
        recordHeapAlloc(64);
    rec.deactivate();

    ASSERT_EQ(consumer.dataAddrs.size(), 100u);
    for (HostAddr a : consumer.dataAddrs) {
        EXPECT_GE(a, Recorder::heapBase);
        EXPECT_LT(a, Recorder::heapBase + Recorder::heapSpan);
    }
    // Consecutive allocations land on distinct chunks.
    EXPECT_NE(consumer.dataAddrs[0], consumer.dataAddrs[1]);
}

TEST(DataSpace, AllocationsAlignedAndDisjoint)
{
    auto &space = DataSpace::instance();
    HostAddr a = space.alloc(100);
    HostAddr b = space.alloc(1);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 100);
}

TEST(CodeLayout, SizesDeterministicByName)
{
    auto &reg = FuncRegistry::instance();
    FuncId f = reg.lookup("Test::sized", FuncKind::MemAccess);

    CodeLayout l1(reg), l2(reg);
    EXPECT_EQ(l1.code(f).sizeBytes, l2.code(f).sizeBytes);
    EXPECT_EQ(l1.code(f).executedBytes, l2.code(f).executedBytes);
    EXPECT_GT(l1.code(f).sizeBytes, 0u);
    EXPECT_LE(l1.code(f).executedBytes, l1.code(f).sizeBytes);
}

TEST(CodeLayout, FunctionsDoNotOverlap)
{
    auto &reg = FuncRegistry::instance();
    CodeLayout layout(reg);
    FuncId a = reg.lookup("Test::olA", FuncKind::Util);
    FuncId b = reg.lookup("Test::olB", FuncKind::Util);
    // Copies: code() inserts lazily and may invalidate prior refs.
    const auto ca = layout.code(a);
    const auto cb = layout.code(b);
    // Whichever was placed first must end before the other begins.
    if (ca.addr < cb.addr)
        EXPECT_LE(ca.addr + ca.sizeBytes, cb.addr);
    else
        EXPECT_LE(cb.addr + cb.sizeBytes, ca.addr);
}

TEST(CodeLayout, ChildFuncsStableAndDistinct)
{
    auto &reg = FuncRegistry::instance();
    CodeLayout layout(reg);
    FuncId parent = reg.lookup("Test::parent", FuncKind::EventHandler);
    FuncId c0 = layout.childFunc(parent, 0);
    FuncId c1 = layout.childFunc(parent, 1);
    EXPECT_NE(c0, c1);
    EXPECT_EQ(layout.childFunc(parent, 0), c0);
    EXPECT_NE(c0, parent);
    EXPECT_NE(reg.info(c0).name.find("::part0"), std::string::npos);
}

TEST(Synthesizer, BalancedStreamEmitsCallsAndReturns)
{
    auto &reg = FuncRegistry::instance();
    FuncId outer = reg.lookup("Test::outer", FuncKind::EventHandler);
    FuncId inner = reg.lookup("Test::inner", FuncKind::MemAccess);

    CodeLayout layout(reg);
    CheckingSink sink;
    Synthesizer synth(layout, sink, 42);

    synth.funcEnter(outer);
    for (int i = 0; i < 50; ++i) {
        synth.funcEnter(inner);
        synth.dataRef(0x2000'0000 + i * 64, 8, i % 2);
        synth.funcExit(inner);
    }
    synth.funcExit(outer);
    synth.flush();

    EXPECT_EQ(synth.depth(), 0u);
    EXPECT_GT(sink.ops, 200u);
    EXPECT_GE(sink.calls, 50u);    // at least the real scopes
    EXPECT_EQ(sink.calls + 1, sink.returns); // outer had no caller
    EXPECT_GE(sink.loads + sink.stores, 50u);
    EXPECT_FALSE(sink.sawBadBranch);
    EXPECT_EQ(sink.ops, synth.opsEmitted());
}

TEST(Synthesizer, DeterministicForSeed)
{
    auto &reg = FuncRegistry::instance();
    FuncId f = reg.lookup("Test::det", FuncKind::CpuSimple);

    auto run = [&](std::uint64_t seed) {
        CodeLayout layout(reg);
        CheckingSink sink;
        Synthesizer synth(layout, sink, seed);
        for (int i = 0; i < 100; ++i) {
            synth.funcEnter(f);
            synth.funcExit(f);
        }
        synth.flush();
        return sink.ops;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

TEST(Synthesizer, WorkScaleShrinksStream)
{
    auto &reg = FuncRegistry::instance();
    FuncId f = reg.lookup("Test::ws", FuncKind::CpuSimple);

    auto run = [&](double scale) {
        CodeLayout layout(reg);
        CheckingSink sink;
        Synthesizer synth(layout, sink, 3, scale);
        for (int i = 0; i < 300; ++i) {
            synth.funcEnter(f);
            synth.funcExit(f);
        }
        synth.flush();
        return sink.ops;
    };
    auto base = run(1.0);
    auto small = run(0.7);
    EXPECT_LT(small, base);
    // Scaling compounds down the synthetic call tree, so the stream
    // shrinks faster than linearly; just bound it away from zero.
    EXPECT_GT(small, base / 4);
}

TEST(Synthesizer, SelfOpsAttributeTime)
{
    auto &reg = FuncRegistry::instance();
    FuncId hot = reg.lookup("Test::hot", FuncKind::CpuSimple);
    FuncId cold = reg.lookup("Test::cold", FuncKind::CpuSimple);

    CodeLayout layout(reg);
    CheckingSink sink;
    Synthesizer synth(layout, sink, 5);
    for (int i = 0; i < 90; ++i) {
        synth.funcEnter(hot);
        synth.funcExit(hot);
    }
    synth.funcEnter(cold);
    synth.funcExit(cold);

    const auto &self = synth.selfOps();
    ASSERT_GT(self.size(), std::max(hot, cold));
    EXPECT_GT(self[hot], self[cold]);
}

TEST(Synthesizer, PreActivationExitsAreTolerated)
{
    auto &reg = FuncRegistry::instance();
    FuncId f = reg.lookup("Test::preact", FuncKind::Util);
    CodeLayout layout(reg);
    CheckingSink sink;
    Synthesizer synth(layout, sink, 1);

    // An exit without a matching enter (scope opened before the
    // recorder was activated) must be ignored, not crash.
    synth.funcExit(f);
    synth.dataRef(0x1000, 8, false);
    EXPECT_EQ(sink.ops, 0u);
}
