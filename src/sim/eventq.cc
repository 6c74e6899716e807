#include "sim/eventq.hh"

#include <algorithm>
#include <new>
#include <ostream>

#include "base/huge_alloc.hh"
#include "base/sim_error.hh"
#include "sim/profiler.hh"
#include "sim/serialize.hh"
#include "trace/recorder.hh"

namespace g5p::sim
{

Event::~Event()
{
    // Destroying a scheduled event would leave a dangling heap slot.
    g5p_assert(!scheduled(), "event destroyed while scheduled");
}

namespace
{

/**
 * Per-thread free list of EventPool blocks. Each simulation is
 * confined to one thread, so allocate and free always hit the same
 * arena and the pool needs no locking even when the parallel harness
 * runs many simulations at once. Slab memory comes from a
 * huge-page-backed ThpArena and is retained for the thread lifetime
 * (the working set is the peak dynamic-event count, a few KiB),
 * released at thread exit once no block is outstanding.
 */
struct PoolState
{
    /** Intrusive free-list node living inside an unused block. */
    struct FreeNode
    {
        FreeNode *next;
    };

    FreeNode *freeList = nullptr;
    std::size_t outstanding = 0;
    std::size_t slabCount = 0;
    base::ThpArena *arena = new base::ThpArena;

    void
    grow()
    {
        auto *slab = static_cast<unsigned char *>(arena->allocate(
            EventPool::blockSize * EventPool::slabBlocks));
        ++slabCount;
        for (std::size_t i = 0; i < EventPool::slabBlocks; ++i) {
            auto *node = reinterpret_cast<FreeNode *>(
                slab + i * EventPool::blockSize);
            node->next = freeList;
            freeList = node;
        }
    }

    ~PoolState()
    {
        // A block still outstanding at thread exit would mean an
        // event outlived its thread; leak the arena rather than
        // unmap memory someone may still hold.
        if (outstanding != 0)
            return;
        delete arena;
    }

    static PoolState &
    instance()
    {
        static thread_local PoolState state;
        return state;
    }
};

} // namespace

void *
EventPool::allocate(std::size_t size)
{
    if (size > blockSize)
        return ::operator new(size); // oversized subclass: bypass
    // The host-side model charges every dynamic event the same
    // (small) allocator cost regardless of pool state — slab growth
    // depends on what ran earlier in the process, and recording it
    // would make otherwise-identical runs diverge.
    trace::recordHeapAlloc((std::uint32_t)blockSize);
    auto &pool = PoolState::instance();
    if (G5P_UNLIKELY(!pool.freeList))
        pool.grow();
    auto *node = pool.freeList;
    pool.freeList = node->next;
    ++pool.outstanding;
    return node;
}

void
EventPool::deallocate(void *p, std::size_t size) noexcept
{
    if (size > blockSize) {
        ::operator delete(p);
        return;
    }
    auto &pool = PoolState::instance();
    auto *node = static_cast<PoolState::FreeNode *>(p);
    node->next = pool.freeList;
    pool.freeList = node;
    --pool.outstanding;
}

std::size_t
EventPool::outstanding()
{
    return PoolState::instance().outstanding;
}

std::size_t
EventPool::slabsAllocated()
{
    return PoolState::instance().slabCount;
}

static_assert(sizeof(EventFunctionWrapper) <= EventPool::blockSize,
              "EventFunctionWrapper must fit an EventPool block");

EventQueue::EventQueue(std::string name) : name_(std::move(name))
{
}

EventQueue::~EventQueue()
{
    // Release every event so auto-delete events are not leaked and
    // member events can be destroyed without tripping the assert.
    // Order is irrelevant; nothing runs.
    clear();
}

void
EventQueue::siftUp(std::size_t slot)
{
    HeapNode node = heap_[slot];
    while (slot > 0) {
        std::size_t parent = (slot - 1) / arity;
        if (!before(node, heap_[parent]))
            break;
        heap_[slot] = heap_[parent];
        heap_[slot].event->heapIndex_ = slot;
        slot = parent;
    }
    heap_[slot] = node;
    node.event->heapIndex_ = slot;
}

void
EventQueue::siftDown(std::size_t slot)
{
    HeapNode node = heap_[slot];
    const std::size_t count = heap_.size();
    while (true) {
        std::size_t first = slot * arity + 1;
        if (first >= count)
            break;
        std::size_t last = first + arity < count ? first + arity
                                                 : count;
        std::size_t best = first;
        for (std::size_t child = first + 1; child < last; ++child) {
            if (before(heap_[child], heap_[best]))
                best = child;
        }
        if (!before(heap_[best], node))
            break;
        heap_[slot] = heap_[best];
        heap_[slot].event->heapIndex_ = slot;
        slot = best;
    }
    heap_[slot] = node;
    node.event->heapIndex_ = slot;
}

void
EventQueue::schedule(Event &event, Tick when)
{
    G5P_TRACE_SCOPE("EventQueue::schedule", EventLoop, false);
    g5p_assert(!event.scheduled(), "event '%s' already scheduled",
               event.name().c_str());
    g5p_assert(when >= curTick_,
               "scheduling event '%s' in the past (%llu < %llu)",
               event.name().c_str(),
               (unsigned long long)when,
               (unsigned long long)curTick_);

    event.when_ = when;
    event.sequence_ = nextSequence_++;
    Event *tail = lastScheduled_;
    if (tail && tail->when_ == when &&
        tail->priority_ == event.priority_) {
        // Same key as the immediately preceding schedule: append to
        // its chain instead of taking a heap slot. Because appends
        // are consecutive schedules, a chain always holds a
        // contiguous sequence run — the invariant that keeps chain
        // promotion order-exact.
        event.heapIndex_ = Event::chainedIndex;
        event.chainPrev_ = tail;
        tail->chainNext_ = &event;
        ++chainedCount_;
    } else {
        event.heapIndex_ = heap_.size();
        heap_.push_back(HeapNode{when, event.sequence_, &event,
                                 event.priority_});
        siftUp(event.heapIndex_);
    }
    lastScheduled_ = &event;
    ++numScheduled_;
    if (event.autoDelete_)
        ++transientScheduled_;
}

void
EventQueue::promoteChained(Event *head, std::size_t slot)
{
    // The successor shares head's (when, priority) and, because chain
    // sequence runs are contiguous, precedes every other equal-key
    // event still in the heap — dropping it into head's old slot
    // cannot violate heap order in either direction.
    Event *next = head->chainNext_;
    head->chainNext_ = nullptr;
    next->chainPrev_ = nullptr;
    --chainedCount_;
    next->heapIndex_ = slot;
    heap_[slot] = HeapNode{next->when_, next->sequence_, next,
                           next->priority_};
}

void
EventQueue::unlinkChained(Event *event)
{
    Event *prev = event->chainPrev_; // never null: the head is in-heap
    prev->chainNext_ = event->chainNext_;
    if (event->chainNext_)
        event->chainNext_->chainPrev_ = prev;
    event->chainNext_ = nullptr;
    event->chainPrev_ = nullptr;
    event->heapIndex_ = Event::invalidIndex;
    --chainedCount_;
}

void
EventQueue::deschedule(Event &event)
{
    g5p_assert(event.scheduled(),
               "descheduling an unscheduled event");
    forgetMemo(&event);
    if (event.autoDelete_)
        --transientScheduled_;
    if (event.heapIndex_ == Event::chainedIndex) {
        unlinkChained(&event);
        return;
    }
    std::size_t slot = event.heapIndex_;
    g5p_assert(slot < heap_.size() && heap_[slot].event == &event,
               "event '%s' not on this queue",
               event.name().c_str());
    event.heapIndex_ = Event::invalidIndex;
    if (event.chainNext_) {
        promoteChained(&event, slot);
        return;
    }

    HeapNode last = heap_.back();
    heap_.pop_back();
    if (last.event != &event) {
        // Refill the vacated slot in place; the replacement may need
        // to move either direction.
        heap_[slot] = last;
        last.event->heapIndex_ = slot;
        siftUp(slot);
        siftDown(last.event->heapIndex_);
    }
}

void
EventQueue::reschedule(Event &event, Tick when)
{
    if (!event.scheduled()) {
        schedule(event, when);
        return;
    }
    g5p_assert(when >= curTick_,
               "rescheduling event '%s' in the past (%llu < %llu)",
               event.name().c_str(),
               (unsigned long long)when,
               (unsigned long long)curTick_);

    // Chain members (and chain heads) take the generic path: their
    // key is pinned to the chain's, so a re-key means leaving it.
    if (event.heapIndex_ == Event::chainedIndex ||
        event.chainNext_) {
        deschedule(event);
        schedule(event, when);
        return;
    }

    // In-place re-key. The fresh sequence number reproduces the
    // classic deschedule+schedule FIFO behavior bit-for-bit: a
    // rescheduled event always ties after events already queued at
    // the same (when, priority). The event also becomes the
    // consecutive-schedule memo, exactly as deschedule+schedule
    // would make it — required for chain-run contiguity.
    event.when_ = when;
    event.sequence_ = nextSequence_++;
    HeapNode &node = heap_[event.heapIndex_];
    node.when = when;
    node.sequence = event.sequence_;
    siftUp(event.heapIndex_);
    siftDown(event.heapIndex_);
    lastScheduled_ = &event;
    ++numScheduled_;
}

void
EventQueue::popTop()
{
    Event *top = heap_.front().event;
    if (top->autoDelete_)
        --transientScheduled_;
    top->heapIndex_ = Event::invalidIndex;
    forgetMemo(top);
    if (top->chainNext_) {
        // Burst drain: the chain successor takes the root in O(1).
        promoteChained(top, 0);
        return;
    }
    HeapNode last = heap_.back();
    heap_.pop_back();
    const std::size_t count = heap_.size();
    if (count == 0)
        return;
    // Bottom-up pop: walk the hole to a leaf along the min-child path
    // (no compares against the replacement), then drop the replacement
    // in and sift it up. The replacement came from the bottom of the
    // heap, so the sift-up almost always stops immediately.
    std::size_t hole = 0;
    while (true) {
        std::size_t first = hole * arity + 1;
        if (first >= count)
            break;
        std::size_t end = first + arity < count ? first + arity
                                                : count;
        std::size_t best = first;
        for (std::size_t child = first + 1; child < end; ++child) {
            if (before(heap_[child], heap_[best]))
                best = child;
        }
        heap_[hole] = heap_[best];
        heap_[hole].event->heapIndex_ = hole;
        hole = best;
    }
    heap_[hole] = last;
    last.event->heapIndex_ = hole;
    siftUp(hole);
}

Event *
EventQueue::serviceTop()
{
    Event *event = heap_.front().event;
    Tick when = heap_.front().when;
    g5p_assert(when >= curTick_, "event queue went backwards");
    // Attribution key resolution must happen while the event is
    // alive; auto-delete events dangle after process().
    if (profiler_)
        profiler_->beginService(*event, when, size());
    popTop();
    curTick_ = when;
    ++numServiced_;

    bool auto_delete = event->autoDelete();
    event->process();
    if (profiler_)
        profiler_->endService();
    if (auto_delete && !event->scheduled())
        delete event;
    return event;
}

void
EventQueue::dumpPending(std::ostream &os, std::size_t max) const
{
    // Sort a copy of the pending keys (heap plus chains): the dump is
    // cold diagnostic code and service order is what a human
    // debugging a wedge wants.
    std::vector<HeapNode> nodes;
    nodes.reserve(size());
    for (const HeapNode &head : heap_)
        for (Event *ev = head.event; ev; ev = ev->chainNext_)
            nodes.push_back(HeapNode{ev->when_, ev->sequence_, ev,
                                     ev->priority_});
    std::sort(nodes.begin(), nodes.end(),
              [](const HeapNode &a, const HeapNode &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.priority != b.priority)
                      return a.priority < b.priority;
                  return a.sequence < b.sequence;
              });
    os << "pending events (" << nodes.size() << "):\n";
    for (std::size_t i = 0; i < nodes.size() && i < max; ++i) {
        os << "  @" << nodes[i].when << " prio " << nodes[i].priority
           << " '" << nodes[i].event->name() << "'"
           << (nodes[i].event->autoDelete() ? " [transient]" : "")
           << "\n";
    }
    if (nodes.size() > max)
        os << "  ... " << (nodes.size() - max) << " more\n";
}

Event *
EventQueue::serviceOne()
{
    G5P_TRACE_SCOPE("EventQueue::serviceOne", EventLoop, false);
    if (heap_.empty())
        return nullptr;
    return serviceTop();
}

std::uint64_t
EventQueue::serviceUntil(Tick limit)
{
    G5P_TRACE_SCOPE("EventQueue::serviceUntil", EventLoop, false);
    std::uint64_t serviced = 0;
    // One top inspection per event: the loop condition reads the heap
    // root directly and serviceTop() consumes exactly that event.
    while (!heap_.empty() && heap_.front().when <= limit) {
        serviceTop();
        ++serviced;
    }
    return serviced;
}

void
EventQueue::setCurTick(Tick tick)
{
    g5p_assert(empty() || nextTick() >= tick,
               "setCurTick would pass pending events");
    curTick_ = tick;
}

void
EventQueue::registerSerial(const std::string &tag, Event *event)
{
    g5p_assert(event, "registering null event");
    auto [it, inserted] = serialRegistry_.emplace(tag, event);
    if (!inserted)
        g5p_throw(InvariantError, name_, curTick_,
                  "event tag '%s' registered twice", tag.c_str());
}

void
EventQueue::unregisterSerial(const std::string &tag)
{
    serialRegistry_.erase(tag);
}

void
EventQueue::serializeEvents(CheckpointOut &cp) const
{
    // Reverse map for tag lookup; the registry is small (one entry
    // per CPU tick event plus a handful of timers/exits).
    std::map<const Event *, std::string> tags;
    for (const auto &[tag, event] : serialRegistry_)
        tags.emplace(event, tag);

    struct Record
    {
        Tick when;
        std::int16_t priority;
        std::uint64_t sequence;
        std::string tag;
    };
    std::vector<Record> records;
    records.reserve(size());
    for (const HeapNode &node : heap_) {
        // Chained events are pending too: walk each head's chain.
        for (Event *ev = node.event; ev; ev = ev->chainNext_) {
            if (ev->autoDelete_)
                g5p_throw(CheckpointError, name_, curTick_,
                          "cannot checkpoint: transient event '%s' "
                          "pending (queue not quiescent)",
                          ev->name().c_str());
            auto it = tags.find(ev);
            if (it == tags.end())
                g5p_throw(CheckpointError, name_, curTick_,
                          "cannot checkpoint: pending event '%s' has "
                          "no serial registration",
                          ev->name().c_str());
            records.push_back(Record{ev->when_, ev->priority_,
                                     ev->sequence_, it->second});
        }
    }
    // Strict service order; restore re-schedules in this order so
    // fresh sequence numbers reproduce the same tie-breaks.
    std::sort(records.begin(), records.end(),
              [](const Record &a, const Record &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.priority != b.priority)
                      return a.priority < b.priority;
                  return a.sequence < b.sequence;
              });

    cp.param("numEvents", records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        std::ostringstream os;
        os << records[i].when << " " << records[i].tag;
        cp.param("ev" + std::to_string(i), os.str());
    }
    cp.param("numServiced", numServiced_);
    cp.param("numScheduled", numScheduled_);
    cp.param("nextSequence", nextSequence_);
}

void
EventQueue::unserializeEvents(const CheckpointIn &cp)
{
    std::size_t count = 0;
    cp.param("numEvents", count);
    for (std::size_t i = 0; i < count; ++i) {
        std::string record;
        cp.param("ev" + std::to_string(i), record);
        std::istringstream is(record);
        Tick when = 0;
        std::string tag;
        is >> when >> tag;
        auto it = serialRegistry_.find(tag);
        if (it == serialRegistry_.end()) {
            g5p_warn("checkpoint event tag '%s' unknown in this "
                     "machine; skipping", tag.c_str());
            continue;
        }
        if (it->second->scheduled()) {
            g5p_warn("checkpoint event tag '%s' already scheduled; "
                     "skipping", tag.c_str());
            continue;
        }
        schedule(*it->second, when);
    }
    // Restore lifetime counters last (scheduling above bumped them);
    // nextSequence_ from the original run is >= anything assigned
    // here, so relative order of future events is unaffected.
    cp.param("numServiced", numServiced_);
    cp.param("numScheduled", numScheduled_);
    std::uint64_t next_seq = nextSequence_;
    cp.param("nextSequence", next_seq);
    if (next_seq > nextSequence_)
        nextSequence_ = next_seq;
}

void
EventQueue::clear()
{
    for (const HeapNode &node : heap_) {
        Event *ev = node.event;
        while (ev) {
            Event *next = ev->chainNext_;
            ev->chainNext_ = nullptr;
            ev->chainPrev_ = nullptr;
            ev->heapIndex_ = Event::invalidIndex;
            if (ev->autoDelete())
                delete ev;
            ev = next;
        }
    }
    heap_.clear();
    chainedCount_ = 0;
    transientScheduled_ = 0;
    lastScheduled_ = nullptr;
}

} // namespace g5p::sim
