/**
 * @file
 * Dispatch-table suite: EventDispatch unit tests against a private
 * table instance — dense kind assignment, per-handler idempotence,
 * the same-name collision contract, table overflow, and the kind-0
 * slot's virtual call — without poisoning the process-global table
 * the real queues dispatch through. Service order and stats of whole
 * simulations are pinned by the golden fixtures (test_golden.cc).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "base/sim_error.hh"
#include "sim/event_dispatch.hh"
#include "sim/eventq.hh"

using namespace g5p;

namespace
{

// ---------------------------------------------------------------
// EventDispatch table contracts (private instance).
// ---------------------------------------------------------------

void handlerA(sim::Event &) {}
void handlerB(sim::Event &) {}

/** Family of distinct function pointers for the overflow test. */
template <std::size_t N>
void
numberedHandler(sim::Event &)
{
}

/** Register @p Count distinct handlers into @p d, returning kinds. */
template <std::size_t... I>
std::vector<sim::EventKind>
registerMany(sim::EventDispatch &d, std::index_sequence<I...>)
{
    return {d.registerKind("kind" + std::to_string(I),
                           &numberedHandler<I>)...};
}

TEST(EventDispatchTable, RegistrationIsDenseAndIdempotent)
{
    sim::EventDispatch d;
    EXPECT_EQ(d.numKinds(), 1u); // fallback slot
    EXPECT_EQ(d.kindName(sim::fallbackKind), "fallback");

    sim::EventKind a = d.registerKind("a", &handlerA);
    sim::EventKind b = d.registerKind("b", &handlerB);
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 2);
    EXPECT_EQ(d.numKinds(), 3u);
    EXPECT_EQ(d.handler(a), &handlerA);
    EXPECT_EQ(d.handler(b), &handlerB);
    EXPECT_EQ(d.kindName(a), "a");
    EXPECT_EQ(d.kindName(b), "b");

    // Re-registration of the same handler is idempotent — same kind,
    // no new slot — even under a different name.
    EXPECT_EQ(d.registerKind("a", &handlerA), a);
    EXPECT_EQ(d.registerKind("a-again", &handlerA), a);
    EXPECT_EQ(d.numKinds(), 3u);
}

TEST(EventDispatchTable, SameNameDifferentHandlerCollides)
{
    sim::EventDispatch d;
    d.registerKind("tick", &handlerA);
    // Kind names are identities: binding a second handler under an
    // existing name is a programming error, not a silent re-bind.
    EXPECT_THROW(d.registerKind("tick", &handlerB),
                 InvariantError);
}

TEST(EventDispatchTable, OverflowThrowsInsteadOfDegrading)
{
    sim::EventDispatch d;
    // Slots 1..255 (0 is the reserved fallback) accept distinct
    // handlers; the 256th distinct registration must throw.
    auto kinds =
        registerMany(d, std::make_index_sequence<255>{});
    EXPECT_EQ(kinds.size(), 255u);
    EXPECT_EQ(d.numKinds(), 256u);
    EXPECT_THROW(d.registerKind("one-too-many", &handlerA),
                 InvariantError);
    // The failed registration must not have clobbered anything.
    EXPECT_EQ(d.numKinds(), 256u);
    EXPECT_EQ(d.handler(kinds.back()), &numberedHandler<254>);
}

TEST(EventDispatchTable, FallbackSlotRoutesThroughVirtualProcess)
{
    // The reserved kind-0 slot is pre-wired to call process(), so
    // the queue dispatches *every* event through the table, including
    // events that never registered a kind.
    class Probe : public sim::Event
    {
      public:
        explicit Probe(int &hits) : hits_(hits) {}
        void process() override { ++hits_; }

      private:
        int &hits_;
    };

    sim::EventDispatch d;
    int hits = 0;
    Probe p(hits);
    d.invoke(sim::fallbackKind, p);
    EXPECT_EQ(hits, 1);
}

TEST(EventDispatchTable, InTreeWrappersCarryRegisteredKinds)
{
    // The in-tree wrappers must never be fallback-kind: that would
    // silently re-virtualize the hot path.
    sim::EventFunctionWrapper fn([] {}, "probe");
    EXPECT_NE(fn.kind(), sim::fallbackKind);
    EXPECT_NE(sim::EventDispatch::global().handler(fn.kind()),
              sim::EventDispatch::global().handler(sim::fallbackKind));
}

} // namespace
