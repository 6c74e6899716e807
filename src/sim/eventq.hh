/**
 * @file
 * Discrete-event queue, the core of the mg5 architectural simulator.
 *
 * Mirrors gem5's event model: events carry a (when, priority, sequence)
 * key; the queue services them in key order, advancing simulated time
 * (curTick) to each event's scheduled tick. The paper (§VI) notes that
 * gem5's "core, which is the event queue and event scheduler, has been
 * the same for many years" — this module is that core.
 *
 * The queue is an intrusive indexed 4-ary min-heap: each Event stores
 * its own heap slot, so deschedule and reschedule fix the heap in
 * place (no lazy dead entries, no per-pop hash lookups, no compaction
 * stalls). See DESIGN.md §"Event queue internals".
 *
 * Servicing an event is the virtual Event::process() call; see
 * DESIGN.md §"Event dispatch".
 *
 * Scheduling API: the reference-taking family — schedule(Event &,
 * Tick), deschedule(Event &), reschedule(Event &, Tick) — plus
 * scheduleOneShot() for pooled fire-and-forget callbacks.
 */

#ifndef G5P_SIM_EVENTQ_HH
#define G5P_SIM_EVENTQ_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "base/compiler.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "trace/recorder.hh"

namespace g5p::sim
{

class CheckpointIn;
class CheckpointOut;
class EventQueue;
class Profiler;

/**
 * Abstract scheduled event. Subclasses implement process(). Events do
 * not own their memory unless flags say so; the common pattern (as in
 * gem5) is an event member inside the owning SimObject.
 */
class Event
{
  public:
    /** Standard priorities, lower runs earlier at the same tick. */
    enum Priority : std::int16_t
    {
        MinimumPri     = -100,
        DebugEnablePri = -90,
        CpuTickPri     = 50,
        DefaultPri     = 0,
        CacheRespPri   = 10,
        StatDumpPri    = 90,
        SimExitPri     = 100,
        MaximumPri     = 120,
    };

    explicit Event(Priority prio = DefaultPri) : priority_(prio) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** The event's action; runs with curTick == when(). */
    virtual void process() = 0;

    /** Diagnostic name. */
    virtual std::string name() const { return "event"; }

    /** Scheduled tick (valid only while scheduled). */
    Tick when() const { return when_; }

    /** Scheduling priority. */
    std::int16_t priority() const { return priority_; }

    /** True while on a queue. */
    bool scheduled() const { return heapIndex_ != invalidIndex; }

    /** If set, the queue deletes the event after process(). Must not
     *  change while scheduled (the queue counts transient events). */
    void
    setAutoDelete(bool v)
    {
        g5p_assert(!scheduled(),
                   "setAutoDelete on a scheduled event");
        autoDelete_ = v;
    }

    /** @see setAutoDelete */
    bool autoDelete() const { return autoDelete_; }

  private:
    friend class EventQueue;
    friend class Profiler;

    /** Sentinel heap slot meaning "not scheduled". */
    static constexpr std::size_t invalidIndex = ~std::size_t{0};

    /** Sentinel heap slot meaning "scheduled, but parked on another
     *  event's equal-key chain rather than in the heap". */
    static constexpr std::size_t chainedIndex = ~std::size_t{0} - 1;

    Tick when_ = 0;
    std::uint64_t sequence_ = 0;
    /** Slot in the owning queue's heap array (intrusive index). */
    std::size_t heapIndex_ = invalidIndex;
    /** Equal-key FIFO chain links (see EventQueue's burst chains):
     *  events scheduled back-to-back at the same (when, priority)
     *  hang off the first one instead of occupying heap slots. */
    Event *chainNext_ = nullptr;
    Event *chainPrev_ = nullptr;
    /** Profiler's cached event-class key (0 = unresolved). Fits the
     *  tail padding, so profiling support costs no event bytes. */
    std::uint32_t profKey_ = 0;
    std::int16_t priority_;
    bool autoDelete_ = false;
};

/**
 * Free-list pool for dynamically allocated callback events.
 *
 * Dynamic events (cache/xbar/dram responses, TLB-walk continuations)
 * are allocated and freed at simulation-event rate; routing them
 * through the global heap is pure churn. The pool carves fixed-size
 * blocks out of slabs and recycles them through an intrusive free
 * list, so steady-state event allocation touches no allocator at all.
 *
 * Arenas are thread-local: a simulation is confined to one thread
 * (the parallel harness runs one whole simulation per worker), so
 * allocate/free pair up within a thread and need no locking. Slabs
 * come from a huge-page-backed ThpArena (base/huge_alloc.hh), so the
 * pool's steady-state working set sits on as few d-TLB entries as
 * the kernel can manage — the paper's §V-A THP lever applied to
 * mg5's own hottest allocation site.
 */
class EventPool
{
  public:
    /** Block size covering EventFunctionWrapper and friends. */
    static constexpr std::size_t blockSize = 128;
    /** Blocks carved per slab. */
    static constexpr std::size_t slabBlocks = 64;

    /** Pop a block (grows by one slab when the free list is empty). */
    G5P_HOT static void *allocate(std::size_t size);

    /** Push a block back onto the free list. */
    G5P_HOT static void deallocate(void *p, std::size_t size) noexcept;

    /** Blocks handed out and not yet returned (calling thread). */
    static std::size_t outstanding();

    /** Slabs this thread carved from its arena so far. */
    static std::size_t slabsAllocated();
};

/** Event wrapping an arbitrary callback, like gem5's version. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback,
                         std::string name,
                         Priority prio = DefaultPri)
        : Event(prio), callback_(std::move(callback)),
          name_(std::move(name))
    {
    }

    /** Dynamic wrappers recycle through the event pool. */
    static void *
    operator new(std::size_t size)
    {
        return EventPool::allocate(size);
    }

    static void
    operator delete(void *p, std::size_t size) noexcept
    {
        EventPool::deallocate(p, size);
    }

    void process() override { callback_(); }
    std::string name() const override { return name_; }

  private:
    std::function<void()> callback_;
    std::string name_;
};

/**
 * Non-allocating event bound to a member function at compile time
 * (gem5's MemberEventWrapper). The common "tick event member inside
 * the owning object" pattern needs neither a std::function nor a
 * name string allocation:
 *
 *   MemberEventWrapper<&MyCpu::tick> tickEvent_{this, CpuTickPri};
 *
 * Passing a name ("cpu0.tick") keeps the no-std::function layout but
 * gives the profiler and diagnostics a real label; the "owner.type"
 * convention is what wall-clock attribution splits on.
 */
template <auto F>
class MemberEventWrapper;

template <typename T, void (T::*F)()>
class MemberEventWrapper<F> : public Event
{
  public:
    explicit MemberEventWrapper(T *object, Priority prio = DefaultPri)
        : Event(prio), object_(object)
    {
    }

    MemberEventWrapper(T *object, std::string name,
                       Priority prio = DefaultPri)
        : Event(prio), object_(object), name_(std::move(name))
    {
    }

    void process() override { (object_->*F)(); }

    std::string
    name() const override
    {
        return name_.empty() ? Event::name() : name_;
    }

  private:
    T *object_;
    std::string name_;
};

/**
 * A single-threaded discrete-event queue with its own curTick.
 *
 * Layout: a 4-ary min-heap of (key, Event*) nodes ordered by the
 * strict (when, priority, sequence) key. The key is stored inline in
 * the heap node so sift comparisons never chase the Event pointer;
 * heap_[i].event->heapIndex_ == i at all times. Deschedule removes
 * the event's slot in place (O(log n)
 * sifts, O(1) for the common leaf case) and reschedule is an in-place
 * decrease/increase-key — there are no dead entries, so every pop and
 * top inspection is branch-light and events may be destroyed the
 * moment they are descheduled.
 *
 * Equal-key burst chains (gem5's event "bins", adapted): clocked
 * systems schedule whole bursts — every CPU, cache and DRAM event of
 * a cycle — back-to-back at one (when, priority). Consecutive
 * schedules with a key equal to the immediately preceding schedule
 * append to an intrusive FIFO chain on that event instead of taking
 * heap slots; popping a chain head promotes its successor into the
 * vacated slot in O(1). Service order is unchanged: chain members
 * hold a contiguous run of sequence numbers (appends are consecutive
 * schedules by construction), so among equal (when, priority) keys
 * the promoted member always precedes every in-heap event.
 */
class EventQueue
{
  public:
    explicit EventQueue(std::string name = "eventq");
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time of this queue. */
    Tick curTick() const { return curTick_; }

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

    /**
     * Schedule @p event at absolute tick @p when (>= curTick).
     *
     * This is THE scheduling entry point: EventManager's helpers and
     * scheduleOneShot() funnel into this overload (and its
     * deschedule/reschedule siblings), so service order, FIFO-tie
     * behaviour and the transient accounting have exactly one
     * implementation.
     */
    G5P_HOT void schedule(Event &event, Tick when);

    /** Remove a scheduled event (in place, no lazy entries). */
    G5P_HOT void deschedule(Event &event);

    /**
     * Move a scheduled event to a new tick in place, or schedule it
     * if idle. The event is re-sequenced, exactly as a
     * deschedule+schedule pair would be, so FIFO ties behave
     * identically to the classic implementation.
     */
    G5P_HOT void reschedule(Event &event, Tick when);

    /**
     * Schedule a one-shot callback at absolute tick @p when. The
     * event comes from the pool and frees itself after firing — the
     * standard "delayed response" pattern in caches, crossbars, DRAM
     * and TLB walks.
     */
    void
    scheduleOneShot(Tick when, std::function<void()> fn,
                    std::string name)
    {
        auto *ev = new EventFunctionWrapper(std::move(fn),
                                            std::move(name));
        ev->setAutoDelete(true);
        schedule(*ev, when);
    }

    /** True if no events remain (chains hang off in-heap heads, so
     *  an empty heap means nothing is chained either). */
    bool empty() const { return heap_.empty(); }

    /** Number of scheduled events (in-heap plus chained). */
    std::size_t size() const { return heap_.size() + chainedCount_; }

    /** Tick of the next event; maxTick if empty. O(1). */
    Tick
    nextTick() const
    {
        return heap_.empty() ? maxTick : heap_.front().when;
    }

    /**
     * The next event to be serviced (heap root); nullptr if empty.
     * Used by the watchdog flight recorder to label events before
     * servicing (the pointer may dangle afterwards).
     */
    const Event *
    peekTop() const
    {
        return heap_.empty() ? nullptr : heap_.front().event;
    }

    /**
     * Diagnostic dump of up to @p max pending events in service
     * order: "tick prio name [transient]". Part of the watchdog's
     * deadlock/livelock report.
     */
    G5P_COLD void dumpPending(std::ostream &os,
                              std::size_t max = 16) const;

    /**
     * Service exactly one event: advance curTick to its tick and run
     * its process(). Returns the serviced event, or nullptr if
     * empty. The returned pointer is dangling if the event
     * auto-deleted.
     */
    G5P_HOT Event *serviceOne();

    /**
     * Run until the queue is empty or curTick would exceed @p limit.
     * Inspects the heap top once per serviced event.
     * @return number of events serviced.
     */
    G5P_HOT std::uint64_t serviceUntil(Tick limit);

    /** Force curTick (checkpoint restore, and batching handlers —
     *  see serviceHorizon()). Asserts it never passes a pending
     *  event. */
    void setCurTick(Tick tick);

    /**
     * @{ Event-handler batching contract. A handler that services
     * multiple back-to-back units of work inside one process() call
     * (the Atomic CPU's instruction batching) may advance curTick
     * itself with setCurTick(), provided it (a) never passes the
     * next pending event, (b) never passes serviceHorizon() — the
     * run loop's tick limit — and (c) only batches while
     * batchingAllowed() holds. The run loop clears the flag when a
     * watchdog or profiler needs per-event granularity.
     */
    bool batchingAllowed() const { return batchingAllowed_; }
    void setBatchingAllowed(bool v) { batchingAllowed_ = v; }
    Tick serviceHorizon() const { return serviceHorizon_; }
    void setServiceHorizon(Tick t) { serviceHorizon_ = t; }
    /** @} */

    /** Total events serviced over the queue's lifetime. */
    std::uint64_t numServiced() const { return numServiced_; }

    /** Total schedule()/reschedule() calls over the lifetime. */
    std::uint64_t numScheduled() const { return numScheduled_; }

    /**
     * True when no transient events are pending. Every in-flight
     * memory transaction (cache/xbar/DRAM hop, TLB walk, deferred
     * MSHR target) holds exactly one pending auto-delete callback, so
     * a quiescent queue means no transaction is in flight anywhere —
     * the precondition for taking a checkpoint.
     */
    bool quiescent() const { return transientScheduled_ == 0; }

    /**
     * Register a checkpointable event under a unique tag (e.g.
     * "cpu0.tick"). Only registered events may be pending when a
     * checkpoint is taken; the tag is what restore uses to find the
     * equivalent event in the freshly built machine. Throws
     * InvariantError on a tag collision.
     */
    G5P_COLD void registerSerial(const std::string &tag, Event *event);

    /** Drop a registration (owning object is being destroyed). */
    G5P_COLD void unregisterSerial(const std::string &tag);

    /**
     * Write every pending event as (service order, tick, tag) into
     * the current checkpoint section. Throws CheckpointError if a
     * pending event is transient (queue not quiescent) or
     * unregistered.
     */
    G5P_COLD void serializeEvents(CheckpointOut &cp) const;

    /**
     * Re-schedule checkpointed events in recorded service order, so
     * freshly assigned sequence numbers reproduce same-(tick,
     * priority) ties exactly. Unknown tags warn and are skipped
     * (graceful degradation when the machine shape changed).
     */
    G5P_COLD void unserializeEvents(const CheckpointIn &cp);

    /**
     * Deschedule everything (deleting auto-delete events), e.g. to
     * clear startup-scheduled events before a restore repopulates
     * the queue. Registrations are kept.
     */
    G5P_COLD void clear();

    /**
     * Install (or remove, with nullptr) the self-profiler whose
     * beginService/endService bracket every serviced event. The
     * queue does not own the profiler; the caller keeps it alive
     * while installed. Cost when null: one pointer test per event.
     */
    void setProfiler(Profiler *profiler) { profiler_ = profiler; }

    /** The installed self-profiler (may be null). */
    Profiler *profiler() const { return profiler_; }

  private:
    /** Children per heap node; 4-ary keeps the tree shallow and the
     *  child scan within adjacent cache lines. */
    static constexpr std::size_t arity = 4;

    /**
     * Heap slot: the full sort key plus the event it stands for. The
     * key is duplicated from the Event so the hot sift loops compare
     * against contiguous memory instead of dereferencing every
     * candidate.
     */
    struct HeapNode
    {
        Tick when;
        std::uint64_t sequence;
        Event *event;
        std::int16_t priority;
    };

    /** Strict service order: (when, priority, sequence). */
    static bool
    before(const HeapNode &a, const HeapNode &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.priority != b.priority)
            return a.priority < b.priority;
        return a.sequence < b.sequence;
    }

    G5P_HOT void siftUp(std::size_t slot);
    G5P_HOT void siftDown(std::size_t slot);

    /** Detach the root and restore the heap. */
    G5P_HOT void popTop();

    /** Move @p head's chain successor into heap slot @p slot. */
    G5P_HOT void promoteChained(Event *head, std::size_t slot);

    /** Remove a chained (not in-heap) event from its chain. */
    void unlinkChained(Event *event);

    /** Drop the consecutive-schedule memo if it points at @p ev. */
    void
    forgetMemo(const Event *ev)
    {
        if (lastScheduled_ == ev)
            lastScheduled_ = nullptr;
    }

    /** Pop + advance time + run the root event (heap non-empty). */
    G5P_HOT Event *serviceTop();

    std::string name_;
    Tick curTick_ = 0;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t numServiced_ = 0;
    std::uint64_t numScheduled_ = 0;
    /** Pending auto-delete events (see quiescent()). */
    std::size_t transientScheduled_ = 0;

    /** @{ Batching contract state (see batchingAllowed()). */
    bool batchingAllowed_ = true;
    Tick serviceHorizon_ = maxTick;
    /** @} */

    /** 4-ary min-heap; heap_[i].event->heapIndex_ == i. */
    std::vector<HeapNode> heap_;

    /**
     * The most recently scheduled event, while it is still on this
     * queue (every path that removes an event clears the memo via
     * forgetMemo). A schedule whose (when, priority) equals the
     * memo's chains onto it in O(1); the consecutive-schedule
     * requirement is what keeps chain sequence runs contiguous.
     */
    Event *lastScheduled_ = nullptr;

    /** Events parked on chains (scheduled but not in the heap). */
    std::size_t chainedCount_ = 0;

    /** Optional self-profiler (see setProfiler). */
    Profiler *profiler_ = nullptr;

    /** Checkpoint tag -> event (see registerSerial). */
    std::map<std::string, Event *> serialRegistry_;
};

/**
 * Mixin giving SimObjects convenient scheduling helpers bound to one
 * queue (gem5's EventManager). Forwards to EventQueue's canonical
 * reference-based entry points.
 */
class EventManager
{
  public:
    explicit EventManager(EventQueue &eventq) : eventq_(eventq) {}

    EventQueue &eventQueue() const { return eventq_; }

    Tick curTick() const { return eventq_.curTick(); }

    void
    schedule(Event &event, Tick when)
    {
        eventq_.schedule(event, when);
    }

    void
    deschedule(Event &event)
    {
        eventq_.deschedule(event);
    }

    void
    reschedule(Event &event, Tick when)
    {
        eventq_.reschedule(event, when);
    }

    /** @see EventQueue::scheduleOneShot */
    void
    scheduleOneShot(Tick when, std::function<void()> fn,
                    std::string name)
    {
        eventq_.scheduleOneShot(when, std::move(fn),
                                std::move(name));
    }

  private:
    EventQueue &eventq_;
};

} // namespace g5p::sim

#endif // G5P_SIM_EVENTQ_HH
