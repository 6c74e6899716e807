/**
 * @file
 * Unit tests for the discrete-event queue — ordering, priorities,
 * (de/re)scheduling, time advance, and the simulator loop driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/eventq.hh"
#include "sim/clocked_object.hh"
#include "sim/sim_object.hh"
#include "sim/simulator.hh"

using namespace g5p;
using namespace g5p::sim;

namespace
{

/** Event that appends a token to a log when it fires. */
class LogEvent : public Event
{
  public:
    LogEvent(std::vector<int> &log, int token,
             Priority prio = DefaultPri)
        : Event(prio), log_(log), token_(token)
    {}

    void process() override { log_.push_back(token_); }

  private:
    std::vector<int> &log_;
    int token_;
};

} // namespace

TEST(EventQueue, ServicesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent e1(log, 1), e2(log, 2), e3(log, 3);
    eq.schedule(e2, 200);
    eq.schedule(e1, 100);
    eq.schedule(e3, 300);

    eq.serviceUntil(maxTick - 1);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickOrderedByPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent low(log, 1, Event::SimExitPri);
    LogEvent first(log, 2, Event::DefaultPri);
    LogEvent second(log, 3, Event::DefaultPri);
    LogEvent high(log, 4, Event::MinimumPri);

    eq.schedule(low, 50);
    eq.schedule(first, 50);
    eq.schedule(second, 50);
    eq.schedule(high, 50);
    eq.serviceUntil(100);

    EXPECT_EQ(log, (std::vector<int>{4, 2, 3, 1}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent e1(log, 1), e2(log, 2);
    eq.schedule(e1, 10);
    eq.schedule(e2, 20);
    EXPECT_EQ(eq.size(), 2u);

    eq.deschedule(e1);
    EXPECT_FALSE(e1.scheduled());
    EXPECT_EQ(eq.size(), 1u);

    eq.serviceUntil(100);
    EXPECT_EQ(log, std::vector<int>{2});
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent e1(log, 1), e2(log, 2);
    eq.schedule(e1, 10);
    eq.schedule(e2, 20);
    eq.reschedule(e1, 30); // now after e2

    eq.serviceUntil(100);
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, NextTickSkipsSquashed)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent e1(log, 1), e2(log, 2);
    eq.schedule(e1, 10);
    eq.schedule(e2, 20);
    eq.deschedule(e1);
    EXPECT_EQ(eq.nextTick(), 20u);
    eq.deschedule(e2);
}

TEST(EventQueue, ServiceUntilRespectsLimit)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent e1(log, 1), e2(log, 2);
    eq.schedule(e1, 10);
    eq.schedule(e2, 20);

    EXPECT_EQ(eq.serviceUntil(15), 1u);
    EXPECT_EQ(log, std::vector<int>{1});
    EXPECT_TRUE(e2.scheduled());
    eq.deschedule(e2);
}

TEST(EventQueue, EventsCanRescheduleThemselves)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper tick(
        [&] {
            if (++count < 5)
                eq.schedule(tick, eq.curTick() + 10);
        },
        "tick");
    eq.schedule(tick, 0);
    eq.serviceUntil(maxTick - 1);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST(EventQueue, AutoDeleteEventRuns)
{
    EventQueue eq;
    int fired = 0;
    auto *ev = new EventFunctionWrapper([&] { ++fired; }, "once");
    ev->setAutoDelete(true);
    eq.schedule(*ev, 5);
    eq.serviceUntil(10);
    EXPECT_EQ(fired, 1);
    // No leak: ASAN/valgrind-clean by construction.
}

TEST(EventQueue, CountsServicedAndScheduled)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent e1(log, 1);
    eq.schedule(e1, 1);
    eq.serviceUntil(2);
    eq.schedule(e1, 3);
    eq.serviceUntil(4);
    EXPECT_EQ(eq.numScheduled(), 2u);
    EXPECT_EQ(eq.numServiced(), 2u);
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent e1(log, 1), e2(log, 2);
    eq.schedule(e1, 100);
    eq.serviceUntil(200);
    EXPECT_DEATH(eq.schedule(e2, 50), "in the past");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent e1(log, 1);
    eq.schedule(e1, 100);
    EXPECT_DEATH(eq.schedule(e1, 200), "already scheduled");
    eq.deschedule(e1);
}
#endif

TEST(Simulator, RunsToExitEvent)
{
    Simulator sim("system");
    sim.exitSimLoop("done", ExitCause::Finished, 500);
    SimResult result = sim.run();
    EXPECT_EQ(result.cause, ExitCause::Finished);
    EXPECT_EQ(result.tick, 500u);
    EXPECT_EQ(result.message, "done");
}

TEST(Simulator, EmptyQueueExit)
{
    Simulator sim("system");
    SimResult result = sim.run();
    EXPECT_EQ(result.cause, ExitCause::EventQueueEmpty);
}

TEST(Simulator, TickLimitStopsLoop)
{
    Simulator sim("system");
    sim.exitSimLoop("late", ExitCause::Finished, 1000);
    SimResult result = sim.run(100);
    EXPECT_EQ(result.cause, ExitCause::TickLimit);
    EXPECT_EQ(result.tick, 100u);
    // The exit event is still pending; continuing reaches it.
    result = sim.run();
    EXPECT_EQ(result.cause, ExitCause::Finished);
    EXPECT_EQ(result.tick, 1000u);
}

namespace
{

/** SimObject tracking its lifecycle phases. */
class PhaseObject : public SimObject
{
  public:
    PhaseObject(Simulator &sim, const std::string &name,
                std::vector<std::string> &log)
        : SimObject(sim, name), log_(log)
    {}

    void init() override { log_.push_back(name() + ".init"); }
    void startup() override { log_.push_back(name() + ".startup"); }
    void regStats() override { log_.push_back(name() + ".regStats"); }

  private:
    std::vector<std::string> &log_;
};

} // namespace

TEST(Simulator, LifecyclePhasesInOrder)
{
    Simulator sim("system");
    std::vector<std::string> log;
    PhaseObject a(sim, "a", log);
    PhaseObject b(sim, "b", log);
    sim.run();
    EXPECT_EQ(log, (std::vector<std::string>{
        "a.init", "b.init", "a.regStats", "b.regStats",
        "a.startup", "b.startup"}));

    // Phases run once even across repeated run() calls.
    sim.run();
    EXPECT_EQ(log.size(), 6u);
}

TEST(ClockedObject, ClockArithmetic)
{
    Simulator sim("system");
    ClockDomain domain = ClockDomain::fromMHz(2000); // 500 ticks
    EXPECT_EQ(domain.period(), 500u);

    class Obj : public ClockedObject
    {
      public:
        using ClockedObject::ClockedObject;
    } obj(sim, "obj", domain);

    EXPECT_EQ(obj.cyclesToTicks(3), 1500u);
    EXPECT_EQ(obj.ticksToCycles(1500), 3u);
    EXPECT_EQ(obj.ticksToCycles(1501), 4u);
    // At tick 0, the edge is now.
    EXPECT_EQ(obj.clockEdge(), 0u);
    EXPECT_EQ(obj.clockEdge(2), 1000u);
}

TEST(EventQueue, DescheduledEventMayBeDestroyedImmediately)
{
    // A descheduled event's heap entry must never be dereferenced,
    // even if the event is freed right away (regression test for
    // the lazy-squash dangling-pointer hazard).
    EventQueue eq;
    std::vector<int> log;
    auto *transient = new LogEvent(log, 1);
    LogEvent keeper(log, 2);
    eq.schedule(*transient, 10);
    eq.schedule(keeper, 20);
    eq.deschedule(*transient);
    delete transient; // entry for it is still in the heap

    EXPECT_EQ(eq.nextTick(), 20u); // purge walks past the dead entry
    eq.serviceUntil(100);
    EXPECT_EQ(log, std::vector<int>{2});
}

namespace
{

/**
 * Reference model of the *seed* event queue: a lazily-purged binary
 * heap over (when, priority, sequence) keys with a dead-sequence set.
 * The indexed-heap implementation must reproduce its service order
 * bit for bit.
 */
class RefModel
{
  public:
    std::uint64_t
    schedule(int token, Tick when, std::int16_t prio)
    {
        std::uint64_t seq = nextSeq_++;
        heap_.push(Entry{when, prio, seq, token});
        return seq;
    }

    void deschedule(std::uint64_t seq) { dead_.insert(seq); }

    /** Pop the next live entry; false if none remain. */
    bool
    serviceOne(int &token, Tick &when)
    {
        while (!heap_.empty() && dead_.count(heap_.top().seq)) {
            dead_.erase(heap_.top().seq);
            heap_.pop();
        }
        if (heap_.empty())
            return false;
        token = heap_.top().token;
        when = heap_.top().when;
        heap_.pop();
        return true;
    }

  private:
    struct Entry
    {
        Tick when;
        std::int16_t prio;
        std::uint64_t seq;
        int token;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (prio != o.prio)
                return prio > o.prio;
            return seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>,
                        std::greater<Entry>> heap_;
    std::unordered_set<std::uint64_t> dead_;
    std::uint64_t nextSeq_ = 0;
};

/** LogEvent recording (token, tick) service pairs. */
class TracedEvent : public Event
{
  public:
    TracedEvent(std::vector<std::pair<int, Tick>> &log, int token,
                EventQueue &eq, Priority prio = DefaultPri)
        : Event(prio), log_(log), token_(token), eq_(eq)
    {}

    void process() override { log_.push_back({token_, eq_.curTick()}); }

  private:
    std::vector<std::pair<int, Tick>> &log_;
    int token_;
    EventQueue &eq_;
};

} // namespace

TEST(EventQueue, StressMatchesReferenceModel)
{
    // 10k events under random schedule/deschedule/reschedule churn
    // interleaved with servicing; the final service order must match
    // the reference model of the seed implementation exactly.
    constexpr int numEvents = 10000;
    std::mt19937_64 rng(0xe7e9'7151ULL);

    EventQueue eq;
    RefModel ref;
    std::vector<std::pair<int, Tick>> log;

    std::vector<std::unique_ptr<TracedEvent>> events;
    std::vector<std::uint64_t> refSeq(numEvents, 0);
    std::vector<bool> live(numEvents, false);
    const std::int16_t prios[] = {Event::MinimumPri, Event::DefaultPri,
                                  Event::CacheRespPri,
                                  Event::SimExitPri};
    for (int i = 0; i < numEvents; ++i) {
        events.push_back(std::make_unique<TracedEvent>(
            log, i, eq,
            (Event::Priority)prios[rng() % std::size(prios)]));
    }

    auto randWhen = [&] { return eq.curTick() + rng() % 1000; };

    for (int op = 0; op < 60000; ++op) {
        int i = (int)(rng() % numEvents);
        switch (rng() % 8) {
          case 0: case 1: case 2:
            if (!live[i]) {
                Tick when = randWhen();
                refSeq[i] = ref.schedule(i, when,
                                         events[i]->priority());
                eq.schedule(*events[i], when);
                live[i] = true;
            }
            break;
          case 3:
            if (live[i]) {
                ref.deschedule(refSeq[i]);
                eq.deschedule(*events[i]);
                live[i] = false;
            }
            break;
          case 4: case 5:
            if (live[i]) {
                Tick when = randWhen();
                ref.deschedule(refSeq[i]);
                refSeq[i] = ref.schedule(i, when,
                                         events[i]->priority());
                eq.reschedule(*events[i], when);
            }
            break;
          default:
            // Service a small batch through both models.
            for (int n = 0; n < 3 && !eq.empty(); ++n) {
                int token = -1;
                Tick when = 0;
                ASSERT_TRUE(ref.serviceOne(token, when));
                eq.serviceOne();
                ASSERT_FALSE(log.empty());
                EXPECT_EQ(log.back().first, token);
                EXPECT_EQ(log.back().second, when);
                live[token] = false;
            }
            break;
        }
        ASSERT_EQ(eq.size(),
                  (std::size_t)std::count(live.begin(), live.end(),
                                          true));
    }

    // Drain both sides and compare the tail order.
    while (!eq.empty()) {
        int token = -1;
        Tick when = 0;
        ASSERT_TRUE(ref.serviceOne(token, when));
        eq.serviceOne();
        EXPECT_EQ(log.back().first, token);
        EXPECT_EQ(log.back().second, when);
    }
    int token = -1;
    Tick when = 0;
    EXPECT_FALSE(ref.serviceOne(token, when));
}

TEST(EventQueue, DeterminismReplayMatchesSeedOrdering)
{
    // Replay a fixed recorded schedule — (token, when, priority)
    // triples with interleaved deschedules and reschedules — and
    // assert the serviced sequence is bit-identical to the seed
    // implementation's (when, priority, FIFO) order.
    struct Op { char kind; int token; Tick when; std::int16_t prio; };
    const Op script[] = {
        {'s', 0, 100, Event::DefaultPri},
        {'s', 1, 100, Event::DefaultPri},   // FIFO tie with 0
        {'s', 2, 100, Event::MinimumPri},   // wins the tick
        {'s', 3, 50, Event::SimExitPri},
        {'s', 4, 50, Event::DefaultPri},
        {'r', 0, 100, Event::DefaultPri},   // 0 now ties AFTER 1
        {'s', 5, 75, Event::DefaultPri},
        {'d', 4, 0, 0},
        {'s', 6, 75, Event::DefaultPri},    // after 5
        {'r', 3, 60, Event::SimExitPri},
        {'s', 7, 60, Event::DefaultPri},    // beats 3 on priority
        {'s', 8, 100, Event::MaximumPri},
        {'d', 5, 0, 0},
        {'r', 6, 100, Event::DefaultPri},   // ties after 0
    };

    EventQueue eq;
    RefModel ref;
    std::vector<std::pair<int, Tick>> log;
    std::unordered_map<int, std::unique_ptr<TracedEvent>> events;
    std::unordered_map<int, std::uint64_t> refSeq;

    for (const Op &op : script) {
        if (op.kind == 's') {
            events[op.token] = std::make_unique<TracedEvent>(
                log, op.token, eq, (Event::Priority)op.prio);
            refSeq[op.token] = ref.schedule(op.token, op.when,
                                            op.prio);
            eq.schedule(*events[op.token], op.when);
        } else if (op.kind == 'd') {
            ref.deschedule(refSeq[op.token]);
            eq.deschedule(*events[op.token]);
        } else {
            ref.deschedule(refSeq[op.token]);
            refSeq[op.token] = ref.schedule(
                op.token, op.when, events[op.token]->priority());
            eq.reschedule(*events[op.token], op.when);
        }
    }

    std::vector<std::pair<int, Tick>> expected;
    int token = -1;
    Tick when = 0;
    while (ref.serviceOne(token, when))
        expected.push_back({token, when});

    eq.serviceUntil(maxTick - 1);
    EXPECT_EQ(log, expected);
    // The recorded seed order, spelled out: (when, priority, FIFO).
    EXPECT_EQ(log, (std::vector<std::pair<int, Tick>>{
        {7, 60}, {3, 60}, {2, 100}, {1, 100}, {0, 100}, {6, 100},
        {8, 100}}));
}

TEST(EventQueue, RescheduleMovesEventToBackOfTie)
{
    // A reschedule behaves like deschedule+schedule for FIFO ties:
    // the event is re-sequenced behind events already at that key.
    EventQueue eq;
    std::vector<int> log;
    LogEvent e1(log, 1), e2(log, 2);
    eq.schedule(e1, 10);
    eq.schedule(e2, 10);
    eq.reschedule(e1, 10);
    eq.serviceUntil(20);
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

namespace
{

/** Event counting destructor calls (auto-delete coverage). */
class CountedEvent : public Event
{
  public:
    explicit CountedEvent(int &destroyed) : destroyed_(destroyed)
    {
        setAutoDelete(true);
    }

    ~CountedEvent() override { ++destroyed_; }

    void process() override {}

  private:
    int &destroyed_;
};

} // namespace

TEST(EventQueue, DestructorReleasesAutoDeleteEvents)
{
    int destroyed = 0;
    std::vector<int> log;
    auto keeper = std::make_unique<LogEvent>(log, 1);
    {
        EventQueue eq;
        for (int i = 0; i < 8; ++i)
            eq.schedule(*new CountedEvent(destroyed), 10 + i);
        eq.schedule(*keeper, 50);
        EXPECT_EQ(eq.size(), 9u);
        // Queue dies with pending events: auto-delete events are
        // freed, non-owned events are released unscheduled.
    }
    EXPECT_EQ(destroyed, 8);
    EXPECT_FALSE(keeper->scheduled()); // destructor will not assert
}

TEST(EventPool, RecyclesBlocksThroughFreeList)
{
    std::size_t slabs_before = sim::EventPool::slabsAllocated();
    std::size_t outstanding_before = sim::EventPool::outstanding();
    for (int round = 0; round < 1000; ++round) {
        auto *ev = new EventFunctionWrapper([] {}, "pooled");
        delete ev;
    }
    // Steady-state churn reuses one block; at most one slab grown.
    EXPECT_LE(sim::EventPool::slabsAllocated(), slabs_before + 1);
    EXPECT_EQ(sim::EventPool::outstanding(), outstanding_before);
}

TEST(EventQueue, HeavyDescheduleChurnStaysBounded)
{
    // Millions of schedule/deschedule pairs with no servicing must
    // not accumulate heap entries (compaction kicks in).
    EventQueue eq;
    std::vector<int> log;
    LogEvent far_event(log, 1);
    eq.schedule(far_event, 1'000'000);

    LogEvent probe(log, 2);
    for (Tick t = 1; t < 200'000; ++t) {
        eq.schedule(probe, t);
        eq.deschedule(probe);
    }
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextTick(), 1'000'000u);
    eq.deschedule(far_event);
}
